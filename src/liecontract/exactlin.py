"""Exact linear algebra over the rationals.

Everything here works with `fractions.Fraction` scalars, so results are exact
and reproducible: reduced row echelon form is the canonical one (unique for a
given row space), subspaces compare equal iff their canonical bases are
identical, and no pivot selection depends on magnitudes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionError(ValueError):
    """Operands live in different ambient spaces or have incompatible shapes."""


class LinearSolveError(ValueError):
    """The linear system has no solution or no unique one."""


def _coerce(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


def _coerce_vector(vector: Iterable) -> tuple[Fraction, ...]:
    return tuple(_coerce(v) for v in vector)


# ---------------------------------------------------------------------------
# Sparse elimination core.  Rows are dicts {column: nonzero Fraction}; the
# reduced form is unique, so every caller sees canonical output regardless of
# the order rows arrive in.
# ---------------------------------------------------------------------------


def _eliminate(row: dict[int, Fraction], lead: int, pivot_row: dict[int, Fraction]) -> None:
    factor = row.pop(lead)
    for col, val in pivot_row.items():
        if col == lead:
            continue
        new = row.get(col, _ZERO) - factor * val
        if new:
            row[col] = new
        else:
            row.pop(col, None)

def _reduce_rows(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Row-reduce sparse rows; returns {pivot column: normalized row}."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            lead = min(row)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                inv = row[lead]
                pivots[lead] = {c: v / inv for c, v in row.items()}
                break
            _eliminate(row, lead, pivot_row)
    # Back-eliminate so every pivot column is zero in all other rows.
    for lead in sorted(pivots, reverse=True):
        pivot_row = pivots[lead]
        for other_lead, other in pivots.items():
            if other_lead < lead and lead in other:
                _eliminate(other, lead, pivot_row)
    return pivots


def _rows_from_dense(entries: Sequence[Sequence[Fraction]]) -> list[dict[int, Fraction]]:
    return [{c: v for c, v in enumerate(row) if v} for row in entries]


def _densify(row: Mapping[int, Fraction], ncols: int) -> tuple[Fraction, ...]:
    return tuple(row.get(c, _ZERO) for c in range(ncols))


def _nullspace_basis(
    rows: Iterable[Mapping[int, Fraction]], ncols: int
) -> list[dict[int, Fraction]]:
    """Kernel basis of the sparse system, one vector per free column."""
    pivots = _reduce_rows(rows)
    basis: list[dict[int, Fraction]] = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec: dict[int, Fraction] = {free: _ONE}
        for piv, prow in pivots.items():
            coeff = prow.get(free)
            if coeff:
                vec[piv] = -coeff
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Matrix
# ---------------------------------------------------------------------------


class Matrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, entries: Iterable[Iterable], ncols: int | None = None):
        rows = tuple(_coerce_vector(r) for r in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionError("ragged rows")
            if ncols is not None and ncols != width:
                raise DimensionError(f"ncols={ncols} but rows have length {width}")
        else:
            if ncols is None:
                raise DimensionError("empty matrix needs an explicit ncols")
            width = ncols
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], ncols=n)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        cols = other.ncols
        out = []
        for arow in self.entries:
            new = [_ZERO] * cols
            for k, a in enumerate(arow):
                if a:
                    brow = other.entries[k]
                    for j in range(cols):
                        b = brow[j]
                        if b:
                            new[j] += a * b
            out.append(new)
        return Matrix(out, ncols=cols)

    def matvec(self, vector: Sequence) -> tuple[Fraction, ...]:
        vec = _coerce_vector(vector)
        if len(vec) != self.ncols:
            raise DimensionError("vector length does not match column count")
        return tuple(sum((a * v for a, v in zip(row, vec) if a and v), _ZERO) for row in self.entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"


def rank(matrix: Matrix) -> int:
    return len(_reduce_rows(_rows_from_dense(matrix.entries)))


def nullspace_of_rows(rows: Iterable[Mapping[int, Fraction]], ncols: int) -> "Subspace":
    """Kernel of a sparse row system, as a canonical Subspace of Q^ncols."""
    return Subspace._from_rows(_nullspace_basis(rows, ncols), ncols)


def solve(matrix: Matrix, rhs: Sequence) -> tuple[Fraction, ...]:
    """Unique solution of Mx = rhs; raises LinearSolveError otherwise."""
    target = _coerce_vector(rhs)
    if len(target) != matrix.nrows:
        raise DimensionError("rhs length does not match row count")
    aug_col = matrix.ncols
    rows = _rows_from_dense(matrix.entries)
    for row, t in zip(rows, target):
        if t:
            row[aug_col] = t
    pivots = _reduce_rows(rows)
    if aug_col in pivots:
        raise LinearSolveError("inconsistent system")
    if len(pivots) < matrix.ncols:
        raise LinearSolveError("underdetermined system")
    return tuple(pivots[c].get(aug_col, _ZERO) for c in range(matrix.ncols))


# ---------------------------------------------------------------------------
# Subspace
# ---------------------------------------------------------------------------


class Subspace:
    """Linear subspace of Q^n held as its canonical RREF basis.

    Two Subspace objects are equal iff they have the same ambient dimension
    and bit-identical bases; since the basis is canonical this coincides with
    equality of the subspaces themselves.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Iterable] = ()):
        if ambient_dim < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        rows = []
        for vec in vectors:
            dense = _coerce_vector(vec)
            if len(dense) != ambient_dim:
                raise DimensionError(
                    f"vector of length {len(dense)} in ambient dimension {ambient_dim}"
                )
            rows.append({c: v for c, v in enumerate(dense) if v})
        pivots = _reduce_rows(rows)
        basis = tuple(_densify(pivots[c], ambient_dim) for c in sorted(pivots))
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _from_rows(cls, rows: Iterable[Mapping[int, Fraction]], ambient_dim: int) -> "Subspace":
        pivots = _reduce_rows(rows)
        sub = cls.__new__(cls)
        object.__setattr__(sub, "ambient_dim", ambient_dim)
        object.__setattr__(
            sub, "basis", tuple(_densify(pivots[c], ambient_dim) for c in sorted(pivots))
        )
        return sub

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        eye = Matrix.identity(ambient_dim)
        return cls(ambient_dim, eye.entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def contains(self, vector: Iterable) -> bool:
        return Subspace(self.ambient_dim, self.basis + (vector,)).dim == self.dim

    def is_subset(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(other.contains(row) for row in self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

