"""Constructors for the nilpotent families the toolkit studies.

The central family is the chain-and-pairing algebra gm of dimension 2m+1:
a length-(2m-1) adjoint chain under X1 together with alternating pairings
[X_j, X_{2m+1-j}] = (-1)^j X_{2m+1}.  The gmq variants cut selected chain
links; filiform, Heisenberg-plus-abelian and abelian algebras round out the
comparison set.  Every constructor writes its bracket table and builds it
with `from_brackets`, so each law is checked for Jacobi once, where it enters,
and each constructor checks the ranges of its own parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .algebra import LieAlgebra, from_brackets

FAMILY_NAMES = ("gm", "gmq", "filiform", "heisenberg", "abelian")


class InvalidFamilyError(ValueError):
    """Family parameters out of range."""


def validate_q_list(m: int, q_list: tuple[int, ...]) -> None:
    """Check m and a cut list of gm; the empty list, no cut, is valid and names gm."""
    if m < 4:
        raise InvalidFamilyError("gm requires m >= 4")
    if list(q_list) != sorted(set(q_list)):
        raise InvalidFamilyError("q list must be strictly increasing")
    for q in q_list:
        if not 3 <= q <= m + 1:
            raise InvalidFamilyError("q must satisfy 3 ≤ q ≤ m+1")


def deleted_chain_targets(m: int, q_list: tuple[int, ...]) -> set[int]:
    """Chain images removed by the cut list: {q, 2m+2-q} for each q (1-based)."""
    deleted: set[int] = set()
    for q in q_list:
        deleted.add(q)
        deleted.add(2 * m + 2 - q)
    return deleted


def chain_and_pairing_table(m: int, deleted: set[int]) -> dict[tuple[int, int], dict[int, int]]:
    """The bracket table of the chain-and-pairing law of dimension 2m+1, 0-based.

    1-based: [X1, X_j] = X_{j+1} for 2 <= j <= 2m-1 unless j+1 is in
    `deleted`, and [X_j, X_{2m+1-j}] = (-1)^j X_{2m+1} for 2 <= j <= m.  The
    laws of gm, gm(q..) and h_{m-1} + C^2 are built from it, and the
    contraction exponents are solved on it (`contraction.solve_exponents`).
    A new table is built on each call, so the law built from it may keep it.
    """
    tensor = {(0, j - 1): {j: 1} for j in range(2, 2 * m) if j + 1 not in deleted}
    tensor.update({(j - 1, 2 * m - j): {2 * m: (-1) ** j} for j in range(2, m + 1)})
    return tensor


def make_g_m(m: int) -> LieAlgebra:
    """Uncut chain-and-pairing algebra of dimension 2m+1: `make_g_m_q(m, ())`."""
    return make_g_m_q(m, ())


def make_g_m_q(m: int, q_list: tuple[int, ...]) -> LieAlgebra:
    """Chain-and-pairing algebra with the chain links into {q, 2m+2-q} removed.

    All pairing terms (the X_{2m+1} component) are retained; only chain
    brackets [X1, X_{j-1}] = X_j with j in the deleted set disappear.  The
    empty cut list removes nothing: `make_g_m_q(m, ())` is gm.
    """
    q_list = tuple(q_list)
    validate_q_list(m, q_list)
    return from_brackets(2 * m + 1, chain_and_pairing_table(m, deleted_chain_targets(m, q_list)))


def make_model_filiform(n: int) -> LieAlgebra:
    """Single chain [X1, X_j] = X_{j+1} for 2 <= j <= n-1, nothing else."""
    if n < 3:
        raise InvalidFamilyError("filiform model requires n >= 3")
    return from_brackets(n, {(0, j - 1): {j: 1} for j in range(2, n)})


def make_heisenberg_plus_abelian(m: int) -> LieAlgebra:
    """Heisenberg algebra of dimension 2m-3 plus a 2-dimensional abelian factor.

    Written in the adapted basis of dimension 2m+1 where the pairings
    [X_j, X_{2m+1-j}] = (-1)^j X_{2m+1} survive and X1, X_{2m} are central.
    """
    if m < 2:
        raise InvalidFamilyError("heisenberg family requires m >= 2")
    return from_brackets(2 * m + 1, chain_and_pairing_table(m, set(range(3, 2 * m + 1))))


def make_abelian(n: int) -> LieAlgebra:
    if n < 0:
        raise InvalidFamilyError("dimension must be nonnegative")
    return from_brackets(n, {})


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one family member; build() constructs it.

    The recipe checks only which parameters its family takes (and that a
    gmq recipe names at least one cut); the ranges of m, n and the cut list
    are checked once, by the constructor that build() calls.
    """

    family: str
    m: int | None = None
    n: int | None = None
    q_list: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise InvalidFamilyError(f"unknown family {self.family!r}")
        if self.family in ("gm", "gmq", "heisenberg"):
            if self.m is None:
                raise InvalidFamilyError(f"family {self.family} needs m")
            if self.n is not None:
                raise InvalidFamilyError(f"family {self.family} takes no n")
        if self.family in ("filiform", "abelian"):
            if self.n is None:
                raise InvalidFamilyError(f"family {self.family} needs n")
            if self.m is not None:
                raise InvalidFamilyError(f"family {self.family} takes no m")
        if self.family == "gmq":
            if not self.q_list:
                raise InvalidFamilyError("q list must contain at least one entry")
        elif self.q_list:
            raise InvalidFamilyError(f"family {self.family} takes no q list")

    def build(self) -> LieAlgebra:
        if self.family in ("gm", "gmq"):
            return make_g_m_q(self.m, tuple(self.q_list))
        if self.family == "filiform":
            return make_model_filiform(self.n)
        if self.family == "heisenberg":
            return make_heisenberg_plus_abelian(self.m)
        return make_abelian(self.n)

    def label(self) -> str:
        if self.family == "gm":
            return f"g{self.m}"
        if self.family == "gmq":
            return f"g{self.m}({','.join(str(q) for q in self.q_list)})"
        if self.family == "filiform":
            return f"L{self.n}"
        if self.family == "heisenberg":
            return f"h{self.m - 1}+C2"
        return f"C{self.n}"

    def metadata(self) -> dict:
        out: dict = {"family": self.family}
        if self.m is not None:
            out["m"] = self.m
        if self.n is not None:
            out["n"] = self.n
        if self.q_list:
            out["q"] = list(self.q_list)
        return out


def all_q_lists(m: int, max_k: int) -> list[tuple[int, ...]]:
    """Every strictly increasing cut list with 1 <= k <= max_k entries."""
    values = range(3, m + 2)
    out: list[tuple[int, ...]] = []
    for k in range(1, max_k + 1):
        out.extend(combinations(values, k))
    return out
