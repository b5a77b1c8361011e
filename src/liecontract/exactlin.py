"""Exact linear algebra over the rationals.

Results are exact and reproducible: a subspace is held in a canonical form
(unique for a given row space), subspaces compare equal iff their canonical
rows are identical, and no pivot selection depends on magnitudes.

The elimination core (`_echelon`) reads each input row once and never
modifies it.  A row with one nonzero entry, at column c, is a unit row: it
puts e_c in the span and settles c, and no dict is built for it.  Every
other row becomes one working copy, with any column renumbering the caller
asks for applied as it is copied, zeros dropped and denominators cleared.
Settled columns are cut from the copies in place, and a copy cut down to
one entry settles its column in turn.  The result is unchanged: the cut
rows and the e_c span the same space, and a space that holds e_c has e_c
as its canonical row with lead c (that row minus e_c is zero at every pivot
column, so it is zero), while no other canonical row holds c.  On the
sparse systems of the families most rows are settled this way and never
reach a row operation.  The copies that are left are eliminated as
primitive integer rows (fraction-free elimination).
The core keeps its pivot rows reduced as rows arrive (incremental
Gauss-Jordan, no back-substitution pass), so the pivot rows are the
canonical RREF at every step.  An incoming row is reduced against all the
pivot columns it holds in one pass, with one content gcd at the end (as in
Bareiss's fraction-free elimination, the content is removed once per
reduction, not after every step); since each pivot row is zero in the other
pivot columns, that pass gives the same primitive row as eliminating the
columns one at a time.  The same routine, over one column,
clears a new lead from the older pivot rows.  A row may hold ints or
Fractions.  The systems built from the brackets of a
`LieAlgebra` are integral already, because the algebra stores its structure
tensor once, with the denominators cleared; only the powers of ad(x) behind
the characteristic sequence still enter as `Fraction` rows.  `Subspace` keeps
the core's reduced rows as integers, and the package reads a kernel off
those rows: a torus extension takes a torus's canonical rows and their
leads, and the contraction exponents are the one kernel row of their system
at h = 1.  `Fraction`s are built only at the dense boundary:
`Subspace.basis` and `completeness.weight_table` divide each row by its
lead, and `rank` / `solve` normalise their own pivots.

A kernel costs one elimination.  `nullspace_of_rows` has `_echelon` read
the rows with their columns reversed (c -> n - 1 - c).  A reduced pivot row
then holds, besides its lead, only free columns above it, so the kernel
vector of a free column f holds f, with a positive entry, and otherwise
only pivot columns below f: no other free column.  Reversed back, f is the
vector's lead and the images of the other free columns, the leads of the
other kernel vectors, are zero in it; made primitive, the vectors are the
canonical rows of the kernel, and taking the free columns in descending
order emits them in lead order.  Canonical rows are also reused as they are:
`Subspace.is_subset` reduces against them as a ready echelon form, and
`Subspace._from_canonical` takes rows already in canonical form.

Inside the package vectors are sparse rows `{column: nonzero value}`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from typing import Collection, Iterable, Mapping, Sequence

_ZERO = Fraction(0)


class DimensionError(ValueError):
    """Operands live in different ambient spaces or have incompatible shapes."""


class LinearSolveError(ValueError):
    """The linear system has no solution or no unique one."""


def _coerce(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


def _coerce_vector(vector: Iterable) -> tuple[Fraction, ...]:
    return tuple(_coerce(v) for v in vector)


# ---------------------------------------------------------------------------
# Sparse elimination core.  Rows are dicts {column: nonzero int or Fraction};
# the reduced form is unique, so every caller sees canonical output regardless
# of the order rows arrive in.  Each row is held as a primitive integer
# multiple of itself (denominators cleared, content divided out): a row
# operation costs integer products and one content gcd, where Fraction
# arithmetic pays a gcd for every entry.
# ---------------------------------------------------------------------------


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide out the content (gcd of the entries) of a nonzero integer row, in place."""
    g = gcd(*row.values())
    if g != 1:
        for c in row:
            row[c] //= g
    return row


def _reduce(
    row: dict[int, int], held: Collection[int], pivots: Mapping[int, dict[int, int]]
) -> dict[int, int]:
    """Primitive m*row - sum over c in `held` of row[c]*(m/p_c)*pivots[c].

    The one row operation of the elimination core: `_echelon` reduces an
    incoming row with it, and clears a new lead from an older pivot row with
    it (`held` is then that one column).  p_c is the lead of pivots[c], and
    m > 0 is the least multiplier that makes every m*row[c]/p_c an integer:
    the lcm of the p_c / gcd(row[c], p_c).  For one held column this is the
    primitive a*row - b*pivot_row with a, b the two entries in that column
    divided by their gcd.  Every pivot row is zero in the other pivot
    columns, so the sum clears each held column and brings none back: the
    result is the primitive row that eliminating the held columns one at a
    time gives, for one content gcd instead of one per column.  `row` may be
    updated in place; callers use only the returned row.
    """
    m = 1
    for col in held:
        p = pivots[col][col]
        if p != 1:
            m = lcm(m, p // gcd(row[col], p))
    if m != 1:
        row = {c: m * v for c, v in row.items()}
    for col in held:
        pivot_row = pivots[col]
        f = row.pop(col) // pivot_row[col]
        for c, v in pivot_row.items():
            if c != col:
                new = row.get(c, 0) - f * v
                if new:
                    row[c] = new
                else:
                    del row[c]
    return _primitive(row) if row else row


def _echelon(
    rows: Iterable[Mapping[int, int | Fraction]], column: Sequence[int] | None = None
) -> dict[int, dict[int, int]]:
    """Reduced echelon form of sparse rows of ints or Fractions, as {lead column: row}.

    Each input row is read once.  Column c of an input row is column
    `column[c]` of the system eliminated (c itself when `column` is None),
    so a caller that renumbers the columns passes the map instead of copying
    its rows.  A row with one nonzero entry, at c, is a unit row: it settles
    column c and no dict is built for it.  Every other row is copied once,
    with the map applied, zeros dropped and denominators cleared (a row
    holding a Fraction is scaled by the lcm of its denominators); a copy
    left with one entry settles that column too.  The input rows are not
    modified, and no returned row is one of them.

    A settled column c puts e_c in the span, so c is cut from every copy
    that holds it, in place; a copy cut down to one entry settles its column
    in turn.  A queue of settled columns and a column -> copies index, built
    only when some column is settled, make the cascade visit each entry
    once.  The cut copies and the e_c span the same space as the input.  A
    space that holds e_c has e_c as its canonical row with lead c: that row
    minus e_c lies in the space and is zero at every pivot column, so it is
    zero.  The other canonical rows are zero at c, a pivot column.  So the
    result is the echelon form of the cut copies, which hold no settled
    column, plus the pivot row {c: 1} for each settled column.

    The copies that are left are eliminated by incremental Gauss-Jordan: the
    pivot rows are kept reduced at every step, and there is no
    back-substitution pass.  Every row operation is one `_reduce`.  An
    incoming row is reduced against all the pivot columns it holds in a
    single pass, which also makes it primitive; a row that holds none is
    made primitive in place.  Every pivot row is zero in the other pivot
    columns, so the pass brings in no new pivot column and a dependent row
    reaches zero.  What is left, if anything, becomes the pivot row of its
    lead min(row), made positive, and that column is cleared from each older
    pivot row that holds it, one `_reduce` over that one column per older
    row.  Their leads are smaller, so they keep their leads and signs.

    Every pivot row's columns lie at or above its own lead, so a new lead
    below `low`, the smallest lead so far, is held by no older row: only a
    lead above `low` makes the pivot rows be scanned for it.

    So at every step each pivot row is primitive, has a positive lead at its
    minimum column and is zero in every other pivot column: it is the
    canonical RREF row times a positive integer, so the result is unique and
    does not depend on the order of the rows.
    """
    units: set[int] = set()
    live: list[dict[int, int]] = []
    for raw in rows:
        if len(raw) == 1:
            ((c, v),) = raw.items()
            if v:
                units.add(c if column is None else column[c])
            continue
        if Fraction in map(type, raw.values()):
            den = lcm(*(v.denominator for v in raw.values()))
            row = {
                c if column is None else column[c]: v.numerator * (den // v.denominator)
                for c, v in raw.items()
                if v
            }
        elif column is None:
            row = {c: v for c, v in raw.items() if v}
        else:
            row = {column[c]: v for c, v in raw.items() if v}
        if len(row) > 1:
            live.append(row)
        elif row:
            units.update(row)
    if units:
        holders: dict[int, list[dict[int, int]]] = {}
        for row in live:
            for c in row:
                holders.setdefault(c, []).append(row)
        queue = list(units)
        while queue:
            settled = queue.pop()
            for row in holders.pop(settled, ()):
                # A copy emptied below has settled its own column already.
                if not row:
                    continue
                del row[settled]
                if len(row) == 1:
                    (unit,) = row
                    row.clear()
                    if unit not in units:
                        units.add(unit)
                        queue.append(unit)
        live = [row for row in live if row]
    pivots: dict[int, dict[int, int]] = {}
    low = inf
    # Rows are taken by descending first column, so a new lead mostly lies
    # below `low` and the pivot rows need no scan.  The order changes the
    # cost, not the result.
    for row in sorted(live, key=min, reverse=True):
        held = row.keys() & pivots.keys()
        if held:
            row = _reduce(row, held, pivots)
            if not row:
                continue
        else:
            _primitive(row)
        lead = min(row)
        if row[lead] < 0:
            for c in row:
                row[c] = -row[c]
        pivots[lead] = row
        if lead < low:
            low = lead
            continue
        for older, older_row in pivots.items():
            if lead in older_row and older != lead:
                pivots[older] = _reduce(older_row, (lead,), pivots)
    for c in units:
        pivots[c] = {c: 1}
    return pivots


def _rows_from_dense(entries: Sequence[Sequence[Fraction]]) -> list[dict[int, Fraction]]:
    return [{c: v for c, v in enumerate(row) if v} for row in entries]


def _integer_kernel(pivots: Mapping[int, Mapping[int, int]], ncols: int) -> list[dict[int, int]]:
    """Canonical kernel rows of a system from the echelon form of its column-reversed rows.

    `pivots` is the reduced integer echelon form of the system with column c
    renumbered ncols - 1 - c.  A pivot row p with lead l reads
    p_l x_l + sum_f p_f x_f = 0 over the free columns f, so the kernel
    vector of f has x_f = 1 and x_l = -p_f / p_l.  One pass over the pivot
    entries collects those terms per free column; each vector is scaled by
    the lcm of the p_l it involves, made primitive in place, and written in
    the system's own columns.  Free columns are taken in descending order,
    so the vectors come out in ascending order of their leads (see
    `nullspace_of_rows`).
    """
    last = ncols - 1
    terms: dict[int, list[tuple[int, int, int]]] = {
        f: [] for f in range(last, -1, -1) if f not in pivots
    }
    for lead, row in pivots.items():
        p = row[lead]
        for f, v in row.items():
            if f != lead:
                terms[f].append((lead, v, p))
    kernel = []
    for f, entries in terms.items():
        den = lcm(*(p for _, _, p in entries))
        vec = {last - f: den}
        for lead, v, p in entries:
            vec[last - lead] = -v * (den // p)
        kernel.append(_primitive(vec))
    return kernel


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
    return len(_echelon(_rows_from_dense(matrix.entries)))


def nullspace_of_rows(rows: Iterable[Mapping[int, int | Fraction]], ncols: int) -> "Subspace":
    """Kernel of a sparse row system of ints or Fractions, as a canonical Subspace of Q^ncols.

    One elimination: `_echelon` reads the rows with their columns reversed
    (c -> ncols - 1 - c), as it copies them, and leaves the rows unmodified.
    In that reduced form a pivot row holds its lead and free columns above
    it, so by `_integer_kernel` the kernel vector of a free column f holds f,
    with a positive entry, and otherwise only pivot columns below f; it
    holds no other free column.  Mapped back, those pivot columns land above
    the image of f, so that image is the vector's lead, with a positive
    entry, and the vector is zero at the image of every other free column,
    the lead of another kernel vector.  So the vectors, made primitive, are
    the canonical rows of the kernel, one per free column; `_integer_kernel`
    emits them in lead order, and no second elimination or sort is needed.
    """
    return Subspace._from_canonical(_integer_kernel(_echelon(rows, range(ncols - 1, -1, -1)), ncols), ncols)


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
    pivots = _echelon(rows)
    if aug_col in pivots:
        raise LinearSolveError("inconsistent system")
    if len(pivots) < matrix.ncols:
        raise LinearSolveError("underdetermined system")
    return tuple(Fraction(pivots[c].get(aug_col, 0), pivots[c][c]) for c in range(matrix.ncols))


# ---------------------------------------------------------------------------
# Subspace
# ---------------------------------------------------------------------------


class Subspace:
    """Linear subspace of Q^n held in a canonical integer form of its RREF basis.

    The canonical rows are held sparse (`{column: int}`, in pivot order): each
    is the RREF row times the least positive integer that clears its
    denominators, i.e. primitive with a positive lead.  `basis` divides each
    row by its lead and returns the dense RREF, built on demand.  Two Subspace
    objects are equal iff they have the same ambient dimension and identical
    rows; since the rows are canonical this is equality of the subspaces.
    """

    __slots__ = ("ambient_dim", "_rows")

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
        self._set_rows(rows, ambient_dim)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def _set_rows(self, rows: Iterable[Mapping[int, int | Fraction]], ambient_dim: int) -> None:
        pivots = _echelon(rows)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_rows", tuple(pivots[c] for c in sorted(pivots)))

    @classmethod
    def _from_rows(cls, rows: Iterable[Mapping[int, int | Fraction]], ambient_dim: int) -> "Subspace":
        """Span of sparse rows with columns below `ambient_dim`; rows are not checked."""
        sub = cls.__new__(cls)
        sub._set_rows(rows, ambient_dim)
        return sub

    @classmethod
    def _from_canonical(cls, rows: Iterable[dict[int, int]], ambient_dim: int) -> "Subspace":
        """The Subspace whose canonical rows, in lead order, are `rows`; nothing is eliminated or checked."""
        sub = cls.__new__(cls)
        object.__setattr__(sub, "ambient_dim", ambient_dim)
        object.__setattr__(sub, "_rows", tuple(rows))
        return sub

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        if ambient_dim < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        # Unit rows are canonical as they stand.
        return cls._from_canonical([{c: 1} for c in range(ambient_dim)], ambient_dim)

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The canonical RREF rows as dense Fraction tuples, in pivot order."""
        n = self.ambient_dim
        basis = []
        for row in self._rows:
            lead = row[min(row)]
            basis.append(tuple(Fraction(row[c], lead) if c in row else _ZERO for c in range(n)))
        return tuple(basis)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return not self._rows

    def is_subset(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )
        # other's canonical rows are already a reduced echelon form: a row of
        # self lies in other iff reducing it against them leaves zero.  The
        # copy keeps `_reduce` from updating self's row in place.
        pivots = {min(row): row for row in other._rows}
        return not any(_reduce(dict(row), row.keys() & pivots.keys(), pivots) for row in self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

