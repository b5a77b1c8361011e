"""Diagonal contractions of the chain-and-pairing families.

A contraction here is a curve of basis scalings f_t(X_i) = t^(a_i) X_i applied
to a fixed law; each structure constant picks up a power of t and the limit
t -> infinity keeps exactly the exponent-zero entries.  The exponent vectors
come from an integer linear system with one equation per chain bracket, two
free parameters, and a -1 offset on every bracket scheduled for deletion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import completeness
from .algebra import LieAlgebra, center, derivations, derived_subalgebra
from .exactlin import DimensionError
from .families import deleted_chain_targets, validate_q_list


class DivergentLimitError(ValueError):
    """A nonzero entry blows up as t -> infinity."""


@dataclass(frozen=True)
class ParametricLaw:
    """One-parameter family of laws: entry (i, j, k, c, e) means C^k_ij(t) = c t^e."""

    dim: int
    entries: tuple[tuple[int, int, int, Fraction, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [
                {"i": i + 1, "j": j + 1, "k": k + 1, "c": str(c), "e": e}
                for (i, j, k, c, e) in self.entries
            ],
        }


def _affine_solution(m: int, minus_one_targets: set[int]) -> list[tuple[int, int, int]]:
    """Exponents a_1..a_{2m+1} as affine triples (c0, c1, c2) over (1, N1, N2).

    Forward substitution through the chain equations a_1 + a_{j-1} - a_j = 0
    (or -1 for scheduled deletions), anchored at a_2 = N1, a_3 = N2; the top
    entry is a_{2m+1} = a_2 + a_{2m-1}.
    """
    a: dict[int, tuple[int, int, int]] = {2: (0, 1, 0), 3: (0, 0, 1)}
    step3 = -1 if 3 in minus_one_targets else 0
    a[1] = (step3, -1, 1)
    for j in range(4, 2 * m + 1):
        c0, c1, c2 = a[j - 1]
        d0, d1, d2 = a[1]
        bump = 1 if j in minus_one_targets else 0
        a[j] = (c0 + d0 + bump, c1 + d1, c2 + d2)
    c0, c1, c2 = a[2 * m - 1]
    a[2 * m + 1] = (c0, c1 + 1, c2)
    return [a[i] for i in range(1, 2 * m + 2)]


def _exponents_at(affine: list[tuple[int, int, int]], n1: int, n2: int) -> tuple[int, ...]:
    """Evaluate the affine exponent triples at N1 = n1, N2 = n2."""
    return tuple(c0 + c1 * n1 + c2 * n2 for (c0, c1, c2) in affine)


def _cut_solution(m: int, q_list: Sequence[int]) -> list[tuple[int, int, int]]:
    """The affine exponent triples of the chain system that reaches g_m(q..)."""
    q_list = tuple(q_list)
    validate_q_list(m, q_list)
    return _affine_solution(m, deleted_chain_targets(m, q_list))


def solve_exponents(m: int, q_list: tuple[int, ...] = (), n1: int = 1, n2: int = 1) -> tuple[int, ...]:
    """Exponents a with f_t(X_i) = t^(a[i]) X_i reaching g_m(q..) from the uncut chain.

    The two parameters pin a_2 = n1 and a_3 = n2 (both remain free in the
    underlying system; when 3 is itself a cut target the same pinning applies
    and a_1 absorbs the -1 offset).  Entry a_{2m+1} = a_2 + a_{2m-1} makes
    every pairing entry scale with exponent 0.
    """
    return _exponents_at(_cut_solution(m, q_list), n1, n2)


def check_redundancy(m: int, q_list: tuple[int, ...]) -> bool:
    """Whether the pairing-balance equations hold for every (N1, N2) choice.

    Checks a_j + a_{2m+1-j} = a_{j+1} + a_{2m-j} for 2 <= j <= m-1 as an
    identity of affine forms in the two parameters, so the answer covers all
    integer parameter choices at once.
    """
    affine = _cut_solution(m, q_list)

    def at(index: int) -> tuple[int, int, int]:
        return affine[index - 1]

    for j in range(2, m):
        left = tuple(x + y for x, y in zip(at(j), at(2 * m + 1 - j)))
        right = tuple(x + y for x, y in zip(at(j + 1), at(2 * m - j)))
        if left != right:
            return False
    return True


def scale_law(L: LieAlgebra, a: Sequence[int]) -> ParametricLaw:
    """Transport the law along f_t: entry (i,j,k) gains exponent a_i + a_j - a_k.

    The sign convention matches pushing the law forward by f_t^(-1).  The
    limit below is t -> infinity; for t -> 0, pass the negated exponents.
    """
    if len(a) != L.dim:
        raise DimensionError("exponent vector length does not match algebra dimension")
    entries = tuple((i, j, k, c, a[i] + a[j] - a[k]) for (i, j, k, c) in L.entries())
    return ParametricLaw(dim=L.dim, entries=entries)


def limit_law(P: ParametricLaw) -> LieAlgebra:
    """Limit of the parametric law: keep exponent 0, drop negative, error on positive.

    Raises DivergentLimitError naming the first divergent entry (1-based).

    P must come from `scale_law` applied to a Lie law that was checked once
    where it entered (`from_brackets`, which the families and `from_json_dict`
    call); the limit is then Lie by construction and its Jacobi identity is
    not swept again.  For each t the scaled law is isomorphic to the source,
    so each component of its Jacobi residual, a sum of terms
    c1 c2 t^(e1 + e2), vanishes for every t.  With no exponent positive,
    e1 + e2 = 0 forces e1 = e2 = 0, so the constant term of that residual is
    exactly the Jacobi residual of the exponent-0 entries kept here, and it
    vanishes too.
    """
    tensor: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j, k, c, e) in P.entries:
        if e > 0:
            raise DivergentLimitError(
                f"divergent entry ({i + 1},{j + 1},{k + 1}) with exponent {e} > 0"
            )
        if e == 0:
            tensor.setdefault((i, j), {})[k] = c
    return LieAlgebra(P.dim, tensor)


def heisenberg_exponents(m: int) -> tuple[int, ...]:
    """Exponents degenerating the uncut chain algebra all the way to Heisenberg plus C^2.

    Every chain bracket is scheduled for deletion (cut targets 3..2m-1 plus an
    extra -1 equation at 2m), so only the pairing brackets survive.
    """
    validate_q_list(m, ())
    targets = set(range(3, 2 * m + 1))
    return _exponents_at(_affine_solution(m, targets), 1, 1)


@dataclass(frozen=True)
class NecessaryConditionsReport:
    """Dimension comparisons that any contraction source/limit pair must satisfy.

    Each pair is (source value, limit value).
    """

    der_dims: tuple[int, int]
    derived_dims: tuple[int, int]
    center_dims: tuple[int, int]
    ranks: tuple[int, int]

    def all_hold(self, strict_der: bool = False) -> bool:
        """True when every comparison holds; strict_der demands a strict Der increase.

        dim Der grows, dim [g,g] shrinks or stays, the center and the diagonal
        rank grow or stay.
        """
        der_mu, der_lam = self.der_dims
        der_ok = der_mu < der_lam if strict_der else der_mu <= der_lam
        return (
            der_ok
            and self.derived_dims[1] <= self.derived_dims[0]
            and self.center_dims[1] >= self.center_dims[0]
            and self.ranks[1] >= self.ranks[0]
        )


def necessary_conditions(mu: LieAlgebra, lam: LieAlgebra) -> NecessaryConditionsReport:
    """Compare the four contraction-monotone invariants of source mu and limit lam."""
    if mu.dim != lam.dim:
        raise DimensionError("contraction source and limit must share a dimension")
    return NecessaryConditionsReport(
        der_dims=(derivations(mu).dim, derivations(lam).dim),
        derived_dims=(derived_subalgebra(mu).dim, derived_subalgebra(lam).dim),
        center_dims=(center(mu).dim, center(lam).dim),
        ranks=(completeness.diagonal_rank(mu), completeness.diagonal_rank(lam)),
    )
