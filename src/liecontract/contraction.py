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

from . import completeness
from .algebra import LieAlgebra, center, derivations, derived_subalgebra
from .exactlin import DimensionError
from .families import InvalidFamilyError, deleted_chain_targets, make_g_m, validate_q_list

DIRECTIONS = ("to-infinity", "to-zero")


class DivergentLimitError(ValueError):
    """A nonzero entry blows up in the requested limit direction."""


@dataclass(frozen=True)
class ExponentVector:
    """Scaling exponents a, one per basis vector: f_t(X_i) = t^(a[i]) X_i."""

    a: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.a)


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


def _exponents_at(affine: list[tuple[int, int, int]], n1: int, n2: int) -> ExponentVector:
    """Evaluate the affine exponent triples at N1 = n1, N2 = n2."""
    return ExponentVector(tuple(c0 + c1 * n1 + c2 * n2 for (c0, c1, c2) in affine))


def solve_exponents(m: int, q_list: tuple[int, ...] = (), n1: int = 1, n2: int = 1) -> ExponentVector:
    """Exponent vector reaching the cut family g_m(q..) from the uncut chain.

    The two parameters pin a_2 = n1 and a_3 = n2 (both remain free in the
    underlying system; when 3 is itself a cut target the same pinning applies
    and a_1 absorbs the -1 offset).  Entry a_{2m+1} = a_2 + a_{2m-1} makes
    every pairing entry scale with exponent 0.
    """
    if m < 4:
        raise InvalidFamilyError("chain system requires m >= 4")
    q_list = tuple(q_list)
    if q_list:
        validate_q_list(m, q_list)
    targets = deleted_chain_targets(m, q_list) if q_list else set()
    return _exponents_at(_affine_solution(m, targets), n1, n2)


def check_redundancy(m: int, q_list: tuple[int, ...]) -> bool:
    """Whether the pairing-balance equations hold for every (N1, N2) choice.

    Checks a_j + a_{2m+1-j} = a_{j+1} + a_{2m-j} for 2 <= j <= m-1 as an
    identity of affine forms in the two parameters, so the answer covers all
    integer parameter choices at once.
    """
    if m < 4:
        raise InvalidFamilyError("chain system requires m >= 4")
    q_list = tuple(q_list)
    if q_list:
        validate_q_list(m, q_list)
    targets = deleted_chain_targets(m, q_list) if q_list else set()
    affine = _affine_solution(m, targets)

    def at(index: int) -> tuple[int, int, int]:
        return affine[index - 1]

    for j in range(2, m):
        left = tuple(x + y for x, y in zip(at(j), at(2 * m + 1 - j)))
        right = tuple(x + y for x, y in zip(at(j + 1), at(2 * m - j)))
        if left != right:
            return False
    return True


def scale_law(L: LieAlgebra, a: ExponentVector, direction: str = "to-infinity") -> ParametricLaw:
    """Transport the law along f_t: entry (i,j,k) gains exponent a_i + a_j - a_k.

    The sign convention matches pushing the law forward by f_t^(-1); with
    direction "to-zero" all exponents are negated so that the limit operation
    below always reads "drop negative exponents".
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    if len(a) != L.dim:
        raise DimensionError("exponent vector length does not match algebra dimension")
    sign = 1 if direction == "to-infinity" else -1
    entries = []
    for (i, j, k, c) in L.entries():
        e = sign * (a.a[i] + a.a[j] - a.a[k])
        entries.append((i, j, k, c, e))
    return ParametricLaw(dim=L.dim, entries=tuple(entries))


def limit_law(P: ParametricLaw) -> LieAlgebra:
    """Limit of the parametric law: keep exponent 0, drop negative, error on positive.

    Raises DivergentLimitError naming the first divergent entry (1-based).

    P must come from `scale_law` applied to a Lie law that was checked once
    where it entered (`from_maurer_cartan` or `from_json_dict`); the limit is
    then Lie by construction and its Jacobi identity is not swept again.  For
    each t the scaled law is isomorphic to the source, so each component of
    its Jacobi residual, a sum of terms c1 c2 t^(e1 + e2), vanishes for every
    t.  With no exponent positive, e1 + e2 = 0 forces e1 = e2 = 0, so the
    constant term of that residual is exactly the Jacobi residual of the
    exponent-0 entries kept here, and it vanishes too.
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


def contract_to_heisenberg(m: int) -> tuple[ExponentVector, LieAlgebra]:
    """Degenerate the uncut chain algebra all the way to Heisenberg plus C^2.

    Every chain bracket is scheduled for deletion (cut targets 3..2m-1 plus an
    extra -1 equation at 2m), so only the pairing brackets survive.
    """
    if m < 4:
        raise InvalidFamilyError("chain system requires m >= 4")
    targets = set(range(3, 2 * m + 1))
    exponents = _exponents_at(_affine_solution(m, targets), 1, 1)
    limit = limit_law(scale_law(make_g_m(m), exponents))
    return exponents, limit


@dataclass(frozen=True)
class NecessaryConditionsReport:
    """Dimension comparisons that any contraction source/limit pair must satisfy.

    Each pair is (source value, limit value); verdicts are derived from the
    stored dimensions on access.
    """

    der_dims: tuple[int, int]
    derived_dims: tuple[int, int]
    center_dims: tuple[int, int]
    ranks: tuple[int, int]

    @staticmethod
    def _verdict(ok_strict: bool, equal: bool) -> str:
        if equal:
            return "holds-with-equality"
        return "holds" if ok_strict else "fails"

    @property
    def der_verdict(self) -> str:
        """Derivation algebra must grow: dim Der(source) < dim Der(limit)."""
        return self._verdict(self.der_dims[0] < self.der_dims[1], self.der_dims[0] == self.der_dims[1])

    @property
    def derived_verdict(self) -> str:
        """Derived subalgebra must shrink or stay: dim [limit,limit] <= dim [source,source]."""
        return self._verdict(self.derived_dims[1] < self.derived_dims[0], self.derived_dims[0] == self.derived_dims[1])

    @property
    def center_verdict(self) -> str:
        """Center must grow or stay: dim Z(limit) >= dim Z(source)."""
        return self._verdict(self.center_dims[1] > self.center_dims[0], self.center_dims[0] == self.center_dims[1])

    @property
    def rank_verdict(self) -> str:
        """Diagonal rank must grow or stay: rank(limit) >= rank(source)."""
        return self._verdict(self.ranks[1] > self.ranks[0], self.ranks[0] == self.ranks[1])

    def all_hold(self, strict_der: bool = False) -> bool:
        """True when every condition holds; strict_der demands a strict Der increase."""
        if "fails" in (self.der_verdict, self.derived_verdict, self.center_verdict, self.rank_verdict):
            return False
        if strict_der and self.der_verdict != "holds":
            return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "der_dims": list(self.der_dims),
            "der_verdict": self.der_verdict,
            "derived_dims": list(self.derived_dims),
            "derived_verdict": self.derived_verdict,
            "center_dims": list(self.center_dims),
            "center_verdict": self.center_verdict,
            "ranks": list(self.ranks),
            "rank_verdict": self.rank_verdict,
        }


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
