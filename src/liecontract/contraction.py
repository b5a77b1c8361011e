"""Diagonal contractions of the chain-and-pairing families.

A contraction here is a curve of basis scalings f_t(X_i) = t^(a_i) X_i applied
to a fixed law; each structure constant picks up a power of t and the limit
t -> infinity keeps exactly the exponent-zero entries.  An exponent vector is
a kernel row of the homogenised weight equations of gm: one integer row
a_i + a_j - a_k per entry (i, j, k) of the bracket table that
`families.chain_and_pairing_table` writes, plus the unknown h when the target
drops that entry, and two pins a_2 = N1 h, a_3 = N2 h.  `nullspace_of_rows`,
the elimination core every other system goes through, solves it, and the
kernel row with h = 1 is the vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import completeness
from .algebra import LieAlgebra, center, derivations, derived_subalgebra
from .exactlin import DimensionError, LinearSolveError, nullspace_of_rows
from .families import chain_and_pairing_table, deleted_chain_targets, validate_q_list


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


def _exponent_rows(m: int, dropped: set[int]) -> list[dict[int, int]]:
    """The homogenised weight equations of the contraction of gm that drops the chain targets `dropped`.

    One row per entry (i, j, k) of gm's bracket table, as
    `families.chain_and_pairing_table` writes it: column 0 is the
    homogenising unknown h and column i + 1 is a_i.  The row holds
    a_i + a_j - a_k (the row of `completeness.weight_system`, one column
    over), plus h when the target's table (the same builder, with
    `dropped`) drops the entry.  At h = 1 a kept entry scales with exponent 0 and a dropped one
    with exponent -1.
    """
    target = chain_and_pairing_table(m, dropped)
    rows = []
    for (i, j), fiber in chain_and_pairing_table(m, set()).items():
        for k in fiber:
            row = completeness._weight_row(i, j, k, 1)
            if k not in target.get((i, j), ()):
                row[0] = 1
            rows.append(row)
    return rows


def _pinned_exponents(rows: list[dict[int, int]], dim: int, n1: int, n2: int) -> tuple[int, ...]:
    """The exponents a_1..a_dim of the one kernel row of `rows` pinned by a_2 = n1 h, a_3 = n2 h, read at h = 1.

    Raises LinearSolveError unless the pinned kernel is one canonical row
    with h = 1: such a row is primitive with its lead at h, so the exponents
    at h = 1 are its other entries, all integers.
    """
    kernel = nullspace_of_rows(rows + [{0: -n1, 2: 1}, {0: -n2, 3: 1}], dim + 1)._rows
    if len(kernel) != 1 or kernel[0].get(0) != 1:
        raise LinearSolveError("the exponent system has no unique integral solution at h = 1")
    return tuple(kernel[0].get(c, 0) for c in range(1, dim + 1))


def solve_exponents(m: int, q_list: tuple[int, ...] = (), n1: int = 1, n2: int = 1) -> tuple[int, ...]:
    """Exponents a with f_t(X_i) = t^(a[i]) X_i reaching g_m(q..) from the uncut chain.

    The exponents are the kernel row, at h = 1, of the homogenised weight
    equations on gm's bracket table (`_exponent_rows`: exponent 0 on each
    entry g_m(q..) keeps, -1 on each it drops) together with the pins
    a_2 - n1 h and a_3 - n2 h, solved by `nullspace_of_rows`.  Unpinned,
    that kernel has dimension 3, with h, a_2 and a_3 as coordinates
    (`check_redundancy`), so the pinned kernel is one row.  Raises
    LinearSolveError if it is not one row with h = 1.
    """
    q_list = tuple(q_list)
    validate_q_list(m, q_list)
    return _pinned_exponents(_exponent_rows(m, deleted_chain_targets(m, q_list)), 2 * m + 1, n1, n2)


def check_redundancy(m: int, q_list: tuple[int, ...]) -> bool:
    """Whether the pairing-balance equations hold for every (N1, N2) choice.

    The chain rows of the unpinned exponent system (`_exponent_rows`), one
    per target j = 3..2m, each bring in a new unknown a_j, and the pairing
    row of [X_2, X_{2m-1}] brings in a_{2m+1}.  These rows are independent
    and leave h, a_1 and a_2 free (equivalently h, N1 = a_2 and N2 = a_3),
    so the kernel has dimension at most 3.  It is 3 exactly when every other
    pairing row follows from them, that is when the pairing balance holds
    as an identity in h, N1 and N2: one `nullspace_of_rows` decides it for
    every parameter choice at once.
    """
    q_list = tuple(q_list)
    validate_q_list(m, q_list)
    return nullspace_of_rows(_exponent_rows(m, deleted_chain_targets(m, q_list)), 2 * m + 2).dim == 3


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

    The same solve as `solve_exponents` at n1 = n2 = 1, with every chain
    target 3..2m dropped, so only the pairing brackets survive.
    """
    validate_q_list(m, ())
    return _pinned_exponents(_exponent_rows(m, set(range(3, 2 * m + 1))), 2 * m + 1, 1, 1)


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
