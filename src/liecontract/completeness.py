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
from math import lcm

from .algebra import LieAlgebra, _per_algebra, center, derivations
from .exactlin import Subspace, nullspace_of_rows
from .families import make_g_m_q


def _weight_row(i: int, j: int, k: int, shift: int = 0) -> dict[int, int]:
    """The integer row of w_i + w_j - w_k, with w_c in column c + shift.

    The coefficients are +1 and -1; k = i or j cancels a term.
    """
    row = {i + shift: 1, j + shift: 1}
    if k + shift in row:
        del row[k + shift]
    else:
        row[k + shift] = -1
    return row


@_per_algebra
def weight_system(L: LieAlgebra) -> Subspace:
    """Solutions w of w_i + w_j = w_k, one equation per nonzero tensor entry.

    Only the support of the stored tensor is read, so no constant is turned
    back into a Fraction, and each row is a `_weight_row`.  The solution
    space comes back in canonical echelon form, computed once per algebra.
    """
    return nullspace_of_rows([_weight_row(i, j, k) for (i, j), fiber in L._tensor.items() for k in fiber], L.dim)


def diagonal_rank(L: LieAlgebra) -> int:
    """Dimension of the diagonal-derivation space in the given basis.

    This is the dimension of the torus T of `max_torus`, a lower bound on
    the rank of a maximal torus of Der(L).  It is that rank when T gives the
    basis vectors pairwise distinct weights: a torus holding T commutes with
    T, so it keeps every weight space QX_r, is diagonal and lies in T; and
    all maximal tori are conjugate (Mostow 1956).  The weights are pairwise
    distinct on every gm(q..) with m = 4..10 and at most two cuts (tested).
    When two basis vectors share a weight the bound can be strict:
    [X1, X2] = X4, [X1, X3] = X4 has diagonal rank 2, and in the basis
    (X1, X2 - X3, X3, X4) it is h3 + C, of diagonal rank 3.
    """
    return weight_system(L).dim


def max_torus(L: LieAlgebra) -> Subspace:
    """The torus of diagonal derivations: `weight_system(L)`, whose canonical rows are the generators' weights."""
    return weight_system(L)


def semidirect_product(L: LieAlgebra, torus: Subspace) -> LieAlgebra:
    """Extend L by the torus: [h_a, X_i] = w_a[i] X_i, [h_a, h_b] = 0.

    The torus is a Subspace of Q^n, and its canonical rows, in lead order,
    give the generators: w_a is canonical row a divided by its lead.  Torus
    coordinates come first in the product basis.  Raises ValueError when
    the torus has the wrong ambient dimension or is not a space of
    derivations of L; this is where a torus enters, so it is checked here.
    diag(w) is a derivation iff w_i + w_j = w_k for every nonzero C^k_ij,
    the equations `weight_system(L)` solves once per algebra, so the check
    is `is_subset` of that space.  It reduces each row against the space's
    canonical rows and eliminates nothing; handed `weight_system(L)` itself,
    as `max_torus` hands it, each row reduces to zero in one pass.

    The product's constants are those of L and the weights v / lead.  A
    canonical row is primitive, so each prime p dividing its lead leaves
    some entry v prime to p, and the reduced denominators of the row's
    weights have the lead itself as their lcm.  So the product's `_den` is
    lcm(L._den, leads), L's stored integers are rescaled to it, and no
    constant is turned into a Fraction.

    L itself must be a Lie law, checked once where it entered
    (`from_brackets`, which the families and `from_json_dict` call).  The
    product is then Lie by construction: diagonal derivations commute, and
    commuting derivations give a Lie semidirect product, so its Jacobi
    identity is not swept again.
    """
    n = L.dim
    if torus.ambient_dim != n:
        raise ValueError("torus generator length does not match algebra dimension")
    if not torus.is_subset(weight_system(L)):
        raise ValueError("torus generator is not a derivation of the algebra")
    rows = torus._rows
    s = len(rows)
    leads = [row[min(row)] for row in rows]
    den = lcm(L._den, *leads)
    scale = den // L._den
    tensor: dict[tuple[int, int], dict[int, int]] = {}
    for a, (row, lead) in enumerate(zip(rows, leads)):
        for i in sorted(row):
            tensor[(a, s + i)] = {s + i: row[i] * (den // lead)}
    for (i, j) in sorted(L._tensor):
        fiber = L._tensor[(i, j)]
        tensor[(s + i, s + j)] = {s + k: fiber[k] * scale for k in sorted(fiber)}
    labels = tuple(f"H{a + 1}" for a in range(s)) + L.basis_labels
    return LieAlgebra._from_scaled(s + n, tensor, den, labels)


@dataclass(frozen=True)
class CompletenessCertificate:
    """Exact data deciding completeness: the center and derivation dimensions.

    It carries the verdict only.  The diagonal weight system that
    `verify-complete` prints beside it comes from `weight_table`.
    """

    center_dim: int
    der_dim: int
    algebra_dim: int

    @property
    def is_complete(self) -> bool:
        return self.center_dim == 0 and self.der_dim == self.algebra_dim


def is_complete(L: LieAlgebra) -> CompletenessCertificate:
    """Certify completeness from the definition: centerless and dim Der = dim L.

    A trivial center makes ad injective, so the dimension equality forces
    every derivation to be inner.  Only `center(L)` and `derivations(L)`
    are solved; no weight system is.

    `der_dim` is exact, not a bound: `derivations` solves Der(L) as
    ad(L) + Der(L)_0, where t is spanned by the basis elements with diagonal
    ad and Der(L)_0 holds the derivations of t-weight zero.  Proof: for h in
    t, [ad h, .] preserves Der(L), so each weight component D_a of a
    derivation is one; D[h, x] = [Dh, x] + [h, Dx] gives
    [ad h, D] = -ad(Dh); so for a(h) != 0, D_a = -ad(D_a h) / a(h) is inner.
    On rm(q..) the block Der(L)_0 is a small share of the n^2 unknowns.
    """
    return CompletenessCertificate(
        center_dim=center(L).dim,
        der_dim=derivations(L).dim,
        algebra_dim=L.dim,
    )


def weight_table(L: LieAlgebra) -> tuple[int, tuple[tuple[tuple[Fraction, ...], int], ...]]:
    """(torus_dim, weight_multiplicities) of L's diagonal weight system, as `verify-complete` prints them.

    torus_dim is the dimension of `weight_system(L)`.  The weight of basis
    index i is the tuple of its coordinates in the canonical basis of that
    system, entry i of each canonical row divided by the row's lead, read
    off the integer rows; the multiplicities count the indices of each
    weight, sorted by weight.
    """
    rows = weight_system(L)._rows
    leads = [row[min(row)] for row in rows]
    weights: dict[tuple[Fraction, ...], int] = {}
    for i in range(L.dim):
        weight = tuple(Fraction(row.get(i, 0), lead) for row, lead in zip(rows, leads))
        weights[weight] = weights.get(weight, 0) + 1
    return len(rows), tuple(sorted(weights.items()))


def build_r_m(m: int, q_list: tuple[int, ...] = ()) -> LieAlgebra:
    """Semidirect extension of the (possibly cut) chain algebra by its max torus."""
    g = make_g_m_q(m, q_list)
    return semidirect_product(g, max_torus(g))
