"""Diagonal weight systems, maximal tori, and completeness certificates.

For an algebra presented in an adapted basis, every nonzero structure constant
C^k_ij imposes the weight equation w_i + w_j = w_k on a diagonal derivation
diag(w_1..w_n).  The solution space is the maximal diagonal torus; adjoining
it as a semidirect product produces the solvable extensions whose completeness
(trivial center, all derivations inner) this module certifies exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import LieAlgebra, center, derivations
from .exactlin import Subspace, nullspace_of_rows
from .families import make_g_m, make_g_m_q

_ZERO = Fraction(0)
_ONE = Fraction(1)


def weight_system(L: LieAlgebra) -> Subspace:
    """Solutions w of w_i + w_j = w_k, one equation per nonzero tensor entry.

    The solution space comes back in canonical echelon form.
    """
    rows = []
    for (i, j, k, _) in L.entries():
        row: dict[int, Fraction] = {}
        for index, sign in ((i, _ONE), (j, _ONE), (k, -_ONE)):
            row[index] = row.get(index, _ZERO) + sign
        rows.append({c: v for c, v in row.items() if v})
    return nullspace_of_rows(rows, L.dim)


def diagonal_rank(L: LieAlgebra) -> int:
    """Dimension of the diagonal-derivation space in the given basis.

    This is the diagonal rank in the basis the algebra is presented in.  For
    the adapted bases of the families it equals the rank of a maximal torus;
    for an arbitrary basis (e.g. a JSON input) it is only a lower bound.
    """
    return weight_system(L).dim


def _is_diagonal_derivation(L: LieAlgebra, w: Sequence[Fraction]) -> bool:
    """diag(w) is a derivation iff w_i + w_j = w_k for every nonzero C^k_ij."""
    return all(w[i] + w[j] == w[k] for (i, j, k, _) in L.entries())


def max_torus(L: LieAlgebra) -> tuple[tuple[Fraction, ...], ...]:
    """Weight vectors of the torus generators: the canonical weight-system basis."""
    return weight_system(L).basis


def semidirect_product(L: LieAlgebra, torus: Sequence[Sequence[Fraction]]) -> LieAlgebra:
    """Extend L by the torus: [h_a, X_i] = w_a[i] X_i, [h_a, h_b] = 0.

    Torus coordinates come first in the product basis.  Raises ValueError when
    a generator has the wrong length or is not a derivation of L; this is
    where a torus enters, so its generators are checked here.  L itself must
    be a Lie law, checked once where it entered (`from_maurer_cartan` or
    `from_json_dict`).  The product is then Lie by construction: diagonal
    derivations commute, and commuting derivations give a Lie semidirect
    product, so its Jacobi identity is not swept again.
    """
    s = len(torus)
    n = L.dim
    for w in torus:
        if len(w) != n:
            raise ValueError("torus generator length does not match algebra dimension")
        if not _is_diagonal_derivation(L, w):
            raise ValueError("torus generator is not a derivation of the algebra")
    tensor: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a, w in enumerate(torus):
        for i, value in enumerate(w):
            if value:
                tensor[(a, s + i)] = {s + i: value}
    for (i, j, k, c) in L.entries():
        tensor.setdefault((s + i, s + j), {})[s + k] = c
    labels = tuple(f"H{a + 1}" for a in range(s)) + L.basis_labels
    return LieAlgebra(s + n, tensor, labels)


@dataclass(frozen=True)
class CompletenessCertificate:
    """Exact data deciding completeness: center and derivation dimensions.

    `torus_dim` and `weight_multiplicities` describe the algebra's own diagonal
    weight system (weights are coordinates against the solution basis).
    """

    center_dim: int
    der_dim: int
    algebra_dim: int
    torus_dim: int
    weight_multiplicities: tuple[tuple[tuple[Fraction, ...], int], ...]

    @property
    def is_complete(self) -> bool:
        return self.center_dim == 0 and self.der_dim == self.algebra_dim

    def to_json_dict(self) -> dict:
        return {
            "algebra_dim": self.algebra_dim,
            "center_dim": self.center_dim,
            "der_dim": self.der_dim,
            "torus_dim": self.torus_dim,
            "complete": self.is_complete,
            "weight_multiplicities": [
                {"weight": [str(v) for v in weight], "dim": mult}
                for (weight, mult) in self.weight_multiplicities
            ],
        }


def is_complete(L: LieAlgebra) -> CompletenessCertificate:
    """Certify completeness from the definition: centerless and dim Der = dim L.

    A trivial center makes ad injective, so the dimension equality forces
    every derivation to be inner.
    """
    system = weight_system(L)
    weights: dict[tuple[Fraction, ...], int] = {}
    for i in range(L.dim):
        weight = tuple(w[i] for w in system.basis)
        weights[weight] = weights.get(weight, 0) + 1
    multiplicities = tuple(sorted(weights.items()))
    return CompletenessCertificate(
        center_dim=center(L).dim,
        der_dim=derivations(L).dim,
        algebra_dim=L.dim,
        torus_dim=system.dim,
        weight_multiplicities=multiplicities,
    )


def build_r_m(m: int, q_list: tuple[int, ...] = ()) -> LieAlgebra:
    """Semidirect extension of the (possibly cut) chain algebra by its max torus."""
    g = make_g_m_q(m, tuple(q_list)) if q_list else make_g_m(m)
    return semidirect_product(g, max_torus(g))
