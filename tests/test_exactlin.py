import copy
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from liecontract import exactlin
from liecontract.algebra import (
    LieAlgebra,
    _derivation_rows,
    bracket_subspaces,
    derived_subalgebra,
    from_json_dict,
    to_json_dict,
)
from liecontract.exactlin import (
    DimensionError,
    LinearSolveError,
    Matrix,
    Subspace,
    nullspace_of_rows,
    _echelon,
    rank,
    solve,
)
from liecontract.families import all_q_lists, make_g_m_q
from oracles import (
    in_basis,
    integer_rows,
    kernel_by_gauss_jordan,
    random_basis,
    rank_reverse_elimination,
    rref_gauss_jordan,
)

scalars = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(
            st.lists(scalars, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Matrix(rows, ncols=ncols)


def rows_of(matrix):
    """Dense matrix rows as the integer {column: value} dicts nullspace_of_rows takes."""
    return integer_rows(dict(enumerate(row)) for row in matrix.entries)


# The canonical basis of a Subspace is the reduced row echelon form of its
# generators, zero rows dropped.


def test_rref_identity_is_fixed_point():
    eye = Matrix([[int(r == c) for c in range(4)] for r in range(4)])
    assert Subspace(4, eye.entries).basis == eye.entries


def test_rref_zero_matrix():
    assert Subspace(2, [[0, 0]] * 3).basis == ()


def test_rref_dependent_rows_collapse():
    assert Subspace(2, [[1, 2], [2, 4]]).basis == ((Fraction(1), Fraction(2)),)


def test_rref_normalizes_pivots():
    basis = Subspace(3, [[0, 3, 6], [2, 4, 8]]).basis
    assert basis[0] == (Fraction(1), Fraction(0), Fraction(0))
    assert basis[1] == (Fraction(0), Fraction(1), Fraction(2))


@given(matrices())
def test_rref_is_idempotent(m):
    reduced = Subspace(m.ncols, m.entries).basis
    assert Subspace(m.ncols, reduced).basis == reduced


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + nullspace_of_rows(rows_of(m), m.ncols).dim == m.ncols


@given(matrices())
def test_nullspace_vectors_are_killed(m):
    kernel = nullspace_of_rows(rows_of(m), m.ncols)
    for vec in kernel.basis:
        for row in m.entries:
            assert sum(a * v for a, v in zip(row, vec)) == 0


# Large numerators and denominators make the eliminator clear denominators and
# meet coefficient growth; the derived rows make the rank drop.
large_scalars = st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6))
large_factors = large_scalars.filter(bool)


@st.composite
def growth_systems(draw):
    """(ncols, rows): up to 12 x 8, random rows plus repeated, scaled, combined and zero rows."""
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(Fraction(0)), large_scalars)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=6))
    index = st.integers(0, len(rows) - 1)
    for kind in draw(st.lists(st.sampled_from(("repeat", "scale", "combine", "zero")), max_size=6)):
        if kind == "repeat":
            rows.append(list(rows[draw(index)]))
        elif kind == "scale":
            factor = draw(large_factors)
            rows.append([factor * v for v in rows[draw(index)]])
        elif kind == "combine":
            a, b, i, j = draw(large_factors), draw(large_factors), draw(index), draw(index)
            rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
        else:
            rows.append([Fraction(0)] * ncols)
    if draw(st.booleans()):
        rows = [[-v for v in row] for row in rows]
    return ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(growth_systems())
def test_reduction_matches_the_reverse_eliminator(system):
    ncols, rows = system
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    expected = rank_reverse_elimination(sparse)
    basis = Subspace(ncols, rows).basis
    assert len(basis) == expected
    leads = [next(c for c, v in enumerate(vec) if v) for vec in basis]
    assert leads == sorted(set(leads))
    for i, lead in enumerate(leads):
        assert basis[i][lead] == 1
        assert all(other[lead] == 0 for j, other in enumerate(basis) if j != i)
    # The basis spans no more than the rows do.
    sparse_basis = [{c: v for c, v in enumerate(vec) if v} for vec in basis]
    assert rank_reverse_elimination(sparse + sparse_basis) == expected
    kernel = nullspace_of_rows(integer_rows(sparse), ncols)
    assert kernel.dim == ncols - expected
    for vec in kernel.basis:
        for row in rows:
            assert sum(a * v for a, v in zip(row, vec)) == 0


# The elimination core keeps its pivot rows reduced as rows arrive, so its
# output is the canonical RREF (in primitive integer form) after every row.


def rref_of(pivots):
    """`_echelon` rows divided by their leads, after checking each is primitive with a positive lead."""
    out = {}
    for lead, row in pivots.items():
        assert min(row) == lead and row[lead] > 0
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1
        out[lead] = {c: Fraction(v, row[lead]) for c, v in row.items()}
    return out


sparse_entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


@st.composite
def sparse_systems(draw):
    """(ncols, rows): sparse rows of ints, Fractions and explicit zeros, some of them dependent."""
    ncols = draw(st.integers(1, 8))
    rows = draw(
        st.lists(st.dictionaries(st.integers(0, ncols - 1), sparse_entries, max_size=ncols), max_size=8)
    )
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append({c: a * u.get(c, 0) + b * v.get(c, 0) for c in u.keys() | v.keys()})
    return ncols, rows


@settings(max_examples=200, deadline=None)
@given(sparse_systems(), st.randoms(use_true_random=False))
def test_echelon_is_the_rref_in_any_row_order(system, rnd):
    ncols, rows = system
    rows = integer_rows(rows)
    before = copy.deepcopy(rows)
    pivots = _echelon(rows)
    assert rows == before
    assert not {id(row) for row in pivots.values()} & {id(row) for row in rows}
    assert rref_of(pivots) == rref_gauss_jordan(rows, ncols)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert _echelon(shuffled) == pivots


# Unit rows are settled before the elimination: each puts e_c in the span, c
# is cut from the other rows, and rows cut down to one entry settle in turn.

nonzero_entries = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
)


@st.composite
def unit_rich_systems(draw):
    """(ncols, rows): sparse rows plus unit rows, repeats of them, cascades and zero one-entry rows.

    A cascade is a chain of two-term rows {c_1, c_2}, {c_2, c_3}, ...
    closed by a unit row at its last column, so settling that column cuts
    the chain back to a unit row at each step.  Any row may carry an explicit
    zero entry.
    """
    ncols = draw(st.integers(1, 8))
    column = st.integers(0, ncols - 1)
    rows = draw(st.lists(st.dictionaries(column, sparse_entries, max_size=ncols), max_size=5))
    units = []
    for kind in draw(st.lists(st.sampled_from(("unit", "repeat", "cascade", "zero")), max_size=8)):
        if kind == "unit" or (kind == "repeat" and not units):
            units.append({draw(column): draw(nonzero_entries)})
            rows.append(units[-1])
        elif kind == "repeat":
            (c, v), = draw(st.sampled_from(units)).items()
            rows.append({c: draw(st.sampled_from((v, -v, 3 * v, Fraction(v, 2))))})
        elif kind == "cascade":
            chain = draw(st.lists(column, min_size=1, max_size=ncols, unique=True))
            rows.extend({a: draw(nonzero_entries), b: draw(nonzero_entries)} for a, b in zip(chain, chain[1:]))
            rows.append({chain[-1]: draw(nonzero_entries)})
        else:
            rows.append({draw(column): draw(st.sampled_from((0, Fraction(0))))})
    for row in rows:
        if draw(st.booleans()):
            c = draw(column)
            if c not in row:
                row[c] = draw(st.sampled_from((0, Fraction(0))))
    return ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(unit_rich_systems())
# A zero one-entry row is no unit row: column 0 is not settled.
@example((2, [{0: 0}, {0: 1, 1: 1}]))
@example((2, [{0: Fraction(0)}, {0: 1, 1: 1}]))
# Cut down to {1: 2, 2: 4}, the row must be made primitive again.
@example((3, [{0: 1}, {0: 1, 1: 2, 2: 4}]))
# The unit row at 2 cuts {1: 3, 2: 1} to a unit row at 1, which cuts
# {0: 2, 1: 1} to a unit row at 0: every settled column is a pivot.
@example((3, [{0: 2, 1: 1}, {1: 3, 2: 1}, {2: Fraction(1, 2)}]))
# Cut to {1: 5, 2: 0}, the row holds a zero beside its one nonzero entry.
@example((3, [{0: 1}, {0: 1, 1: 5, 2: 0}, {1: 1, 2: 1}]))
def test_unit_rows_are_settled_to_the_rref(system):
    ncols, rows = system
    rows = integer_rows(rows)
    before = copy.deepcopy(rows)
    pivots = _echelon(rows)
    assert rows == before
    assert not {id(row) for row in pivots.values()} & {id(row) for row in rows}
    assert rref_of(pivots) == rref_gauss_jordan(rows, ncols)


# `_echelon` reads each input row once: a unit row becomes a settled column,
# any other row one working copy, with the caller's column map applied as it
# is copied.  Whatever enters by `_echelon`, `nullspace_of_rows` or
# `Subspace._from_rows` is left as it was, and no result row is an input row.


def assert_unmodified(rows, before, result_rows):
    assert rows == before
    assert [list(map(type, row.values())) for row in rows] == [list(map(type, row.values())) for row in before]
    assert not {id(row) for row in result_rows} & {id(row) for row in rows}


@settings(max_examples=300, deadline=None)
@given(unit_rich_systems(), st.randoms(use_true_random=False))
# A cascade under the reversal map, through rows that held Fractions.
@example((3, [{0: 2, 1: 1}, {1: Fraction(3, 2), 2: 1}, {2: Fraction(1, 2)}]), random.Random(0))
def test_no_input_row_is_modified(system, rnd):
    ncols, rows = system
    rows = integer_rows(rows)
    before = copy.deepcopy(rows)
    column = list(range(ncols))
    rnd.shuffle(column)
    pivots = _echelon(rows, column)
    assert_unmodified(rows, before, pivots.values())
    assert rref_of(pivots) == rref_gauss_jordan([{column[c]: v for c, v in row.items()} for row in rows], ncols)
    kernel = nullspace_of_rows(rows, ncols)
    assert_unmodified(rows, before, kernel._rows)
    assert rref_of({min(row): row for row in kernel._rows}) == kernel_by_gauss_jordan(rows, ncols)
    span = Subspace._from_rows(rows, ncols)
    assert_unmodified(rows, before, span._rows)
    assert rref_of({min(row): row for row in span._rows}) == rref_gauss_jordan(rows, ncols)


def test_the_derived_algebra_leaves_the_tensor_unmodified():
    # `derived_subalgebra` hands the algebra's own fibers to `_echelon`; many
    # of them are unit rows, and the rest hold columns those settle.
    g = make_g_m_q(4, (4,))
    dense = from_json_dict(in_basis(to_json_dict(g), random_basis(g.dim, 1)))
    for L in [make_g_m_q(m, q) for m in (4, 5, 6) for q in [()] + list(all_q_lists(m, 2))] + [dense]:
        before = copy.deepcopy(L._tensor)
        derived = derived_subalgebra(L)
        assert L._tensor == before
        assert not {id(row) for row in derived._rows} & {id(fiber) for fiber in L._tensor.values()}


def counting_calls(monkeypatch, name, record):
    """Wrap the core's row operation `name`; the returned list gets record(*args) per call."""
    calls = []
    original = getattr(exactlin, name)

    def counted(*args):
        calls.append(record(*args))
        return original(*args)

    monkeypatch.setattr(exactlin, name, counted)
    return calls


def counting_reductions(monkeypatch):
    """The set of held columns of each `_reduce` pass."""
    return counting_calls(monkeypatch, "_reduce", lambda row, held, pivots: set(held))


def test_a_new_lead_clears_its_column_from_the_older_pivot_rows(monkeypatch):
    reduced = counting_reductions(monkeypatch)
    first = {1: 1, 2: 3, 3: 1}
    below = {0: 2, 2: -1, 3: 5}
    # first + below + X_2: one fused pass over columns 0 and 1 leaves lead 2,
    # above both older leads and held by both older rows, so one pass over
    # column 2 clears it from each of them.
    above = {0: 2, 1: 1, 2: 3, 3: 6}
    rows = [first, below, above]
    pivots = _echelon(rows)
    assert pivots == {0: {0: 2, 3: 5}, 1: {1: 1, 3: 1}, 2: {2: 1}}
    assert rref_of(pivots) == rref_gauss_jordan(rows, 4)
    assert reduced == [{0, 1}, {2}, {2}]
    assert rows == [{1: 1, 2: 3, 3: 1}, {0: 2, 2: -1, 3: 5}, {0: 2, 1: 1, 2: 3, 3: 6}]


def test_a_lead_between_the_older_leads_is_cleared_from_the_rows_that_hold_it(monkeypatch):
    reduced = counting_reductions(monkeypatch)
    # All three rows start in column 0.  The second and third reduce to leads
    # 3 and then 2: lead 2 lies above the smallest lead 0, though below the
    # latest lead 3, and the pivot row of column 0 holds it.
    rows = [{0: 1, 2: 1}, {0: 1, 2: 1, 3: 1}, {0: 1, 2: 2, 4: 1}]
    pivots = _echelon(rows)
    assert pivots == {0: {0: 1, 4: -1}, 3: {3: 1}, 2: {2: 1, 4: 1}}
    assert rref_of(pivots) == rref_gauss_jordan(rows, 5)
    assert reduced == [{0}, {0}, {2}]


def test_no_clearing_pass_runs_when_each_new_lead_lies_below_every_older_lead(monkeypatch):
    reduced = counting_reductions(monkeypatch)
    # Leads 2, 1, 0 in turn: each is held by no older row.  The one pass is
    # the incoming row that holds column 2.
    rows = [{2: 1, 3: 1}, {1: 2, 3: 4}, {0: 1, 2: 1, 3: 1}]
    pivots = _echelon(rows)
    assert pivots == {2: {2: 1, 3: 1}, 1: {1: 1, 3: 2}, 0: {0: 1}}
    assert rref_of(pivots) == rref_gauss_jordan(rows, 4)
    assert reduced == [{2}]


def test_a_lead_above_every_older_lead_that_no_row_holds_changes_no_row(monkeypatch):
    reduced = counting_reductions(monkeypatch)
    older = {0: 2, 2: 1, 3: -1}
    # The second row reduces to lead 1, above lead 0, so the pivot rows are
    # scanned for it; the pivot row of column 0 does not hold column 1, so
    # no clearing pass runs and that row stays as it entered.
    rows = [older, {0: 2, 1: 3, 2: 1, 3: -1}]
    pivots = _echelon(rows)
    assert pivots == {0: {0: 2, 2: 1, 3: -1}, 1: {1: 1}}
    assert rref_of(pivots) == rref_gauss_jordan(rows, 4)
    assert reduced == [{0}]


def test_a_dependent_row_makes_one_fused_pass_over_the_pivot_columns_it_holds(monkeypatch):
    rng = random.Random(7)
    ncols = 9
    independent = [{c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in range(ncols)} for _ in range(6)]
    pivots = _echelon(independent)
    assert sorted(pivots) == [0, 1, 2, 3, 4, 5]
    assert any(row[lead] != 1 for lead, row in pivots.items())
    # Each dependent row combines the pivot row of column 0 with two others, so
    # it holds exactly three pivot columns; with column 0 it arrives last.
    dependent = []
    for _ in range(5):
        row: dict[int, int] = {}
        for lead in [0] + rng.sample(range(1, 6), 2):
            k = rng.choice((-2, -1, 1, 3))
            for c, v in pivots[lead].items():
                row[c] = row.get(c, 0) + k * v
        dependent.append(row)
    held = [row.keys() & pivots.keys() for row in dependent]
    assert all(len(h) == 3 for h in held)
    reduced = counting_reductions(monkeypatch)
    assert _echelon(independent) == pivots
    alone = list(reduced)
    reduced.clear()
    assert _echelon(independent + dependent) == pivots
    # The independent rows make the same passes, incoming and clearing, and
    # then each dependent row makes one.
    assert reduced == alone + held


def test_one_pass_over_three_pivots_with_coprime_leads():
    # RREF rows with leads 2, 3 and 5; m = lcm of p_c / gcd(r_c, p_c) and
    # f_c = r_c * m / p_c.
    older = [{0: 2, 3: 1}, {1: 3, 3: 1, 4: -1}, {2: 5, 3: 1, 4: 1}]
    dependent = {0: 2, 1: 3, 2: 5, 3: 3, 4: 0}
    independent = {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}
    with_content = {0: 2, 1: 1, 2: 1, 3: 1, 4: 2}
    pivots = _echelon(older)
    assert pivots == {0: {0: 2, 3: 1}, 1: {1: 3, 3: 1, 4: -1}, 2: {2: 5, 3: 1, 4: 1}}
    results = []
    for row in (dependent, independent, with_content):
        # Each row is primitive already; its explicit zero is dropped.
        nonzero = {c: v for c, v in row.items() if v}
        by_column = dict(nonzero)
        for col in (0, 1, 2):
            by_column = exactlin._reduce(by_column, (col,), pivots)
        assert exactlin._reduce(dict(nonzero), {0, 1, 2}, pivots) == by_column
        results.append(by_column)
    # dependent: every r_c is a multiple of p_c, so m = 1 and f = (1, 1, 1).
    # The other two: m = lcm(1, 3, 5) = 15 and f = (15, 5, 3), which leaves
    # 15 - 15 - 5 - 3 = -8 in column 3, and 15 + 5 - 3 = 17 or 30 + 5 - 3 = 32
    # in column 4: the content 8 of the last is divided out once, at the end.
    assert results == [{}, {3: -8, 4: 17}, {3: -1, 4: 4}]
    rows = older + [dependent, independent]
    full = _echelon(rows)
    assert full == {0: {0: 16, 4: 17}, 1: {1: 8, 4: 3}, 2: {2: 8, 4: 5}, 3: {3: 8, 4: -17}}
    assert rref_of(full) == rref_gauss_jordan(rows, 5)


def test_a_row_that_holds_one_pivot_column_is_reduced_as_one_elimination(monkeypatch):
    pivot = {0: 4, 1: 1, 2: 3}
    row = {0: 6, 1: 1, 2: 5}
    # gcd(6, 4) = 2, so m = 4 / 2 = 2 and f = 6 * 2 / 4 = 3: the entries 6
    # and 4 divided by their gcd give a = 2 and b = 3, and 2*row - 3*pivot =
    # {1: -1, 2: 1} goes to _primitive, not a multiple of it.
    before_content = counting_calls(monkeypatch, "_primitive", dict)
    single = exactlin._reduce(dict(row), {0}, {0: pivot})
    assert single == {1: -1, 2: 1}
    assert before_content == [{1: -1, 2: 1}]
    reduced = counting_reductions(monkeypatch)
    rows = [pivot, row]
    pivots = _echelon(rows)
    assert pivots == {0: {0: 1, 2: 1}, 1: {1: 1, 2: -1}}
    assert rref_of(pivots) == rref_gauss_jordan(rows, 3)
    # One pass for the incoming row, and one over its new lead clears that
    # column from the older pivot row.
    assert reduced == [{0}, {1}]


def test_nullspace_of_identity_is_zero():
    assert nullspace_of_rows([{r: 1} for r in range(3)], 3) == Subspace(3)


def test_nullspace_of_zero_map_is_everything():
    assert nullspace_of_rows([{}, {0: Fraction(0)}], 4) == Subspace.full(4)


def test_nullspace_single_equation():
    kernel = nullspace_of_rows(integer_rows([{0: Fraction(1), 1: Fraction(1)}]), 3)
    assert kernel.dim == 2
    assert Subspace(3, [[1, -1, 0]]).is_subset(kernel)
    assert Subspace(3, [[0, 0, 5]]).is_subset(kernel)
    assert not Subspace(3, [[1, 0, 0]]).is_subset(kernel)


def test_a_fraction_row_is_refused_by_the_core():
    # Denominators are cleared where a vector enters; the core takes ints only.
    with pytest.raises(TypeError):
        nullspace_of_rows([{0: Fraction(1, 2), 1: 1}], 2)
    # Reversed, the second row is {0: 1/2, 1: 1} against the pivot row
    # {0: 1, 1: 2} of lead 1: floor division would read 1/2 as 0 and return
    # the zero kernel, where the kernel is a line.
    with pytest.raises(TypeError):
        nullspace_of_rows([{0: 2, 1: 1}, {0: 1, 1: Fraction(1, 2)}], 2)


def test_nullspace_of_rows_matches_dense():
    rows = integer_rows([{0: Fraction(1), 2: Fraction(-1)}, {1: Fraction(2)}])
    dense = Matrix([[1, 0, -1], [0, 2, 0]])
    assert nullspace_of_rows(rows, 3) == nullspace_of_rows(rows_of(dense), 3)
    assert nullspace_of_rows(rows, 3) == Subspace(3, [[1, 0, 1]])


# nullspace_of_rows eliminates once, on the column-reversed rows, and reads
# the canonical kernel rows off that echelon form.  The references below
# share nothing with it: vectors in canonical echelon form (primitive
# integer rows with positive, increasing leads, each zero at the other
# leads) that lie in the kernel and number ncols minus the rank of the
# oracle's reverse eliminator are its canonical basis; on small systems the
# kernel is also read off textbook Gauss-Jordan.


def assert_canonical_rows(rows):
    """`rows` are canonical Subspace rows: primitive ints, positive increasing leads, zero at the other leads."""
    leads = [min(row) for row in rows]
    assert leads == sorted(set(leads))
    for lead, row in zip(leads, rows):
        assert all(type(v) is int and v for v in row.values())
        assert row[lead] > 0 and gcd(*row.values()) == 1
        assert row.keys() & set(leads) == {lead}


def assert_kernel_is_the_canonical_span(rows, ncols):
    kernel = nullspace_of_rows(rows, ncols)
    assert_canonical_rows(kernel._rows)
    for vec in kernel._rows:
        for row in rows:
            assert sum(v * row.get(c, 0) for c, v in vec.items()) == 0
    nonzero = [{c: v for c, v in row.items() if v} for row in rows]
    assert kernel.dim == ncols - rank_reverse_elimination(nonzero)
    return kernel


@st.composite
def kernel_systems(draw):
    """(ncols, rows) with ncols from 0: sparse rows of ints, Fractions, explicit zeros and empty rows."""
    ncols = draw(st.integers(0, 8))
    columns = st.integers(0, ncols - 1) if ncols else st.nothing()
    rows = draw(st.lists(st.dictionaries(columns, sparse_entries, max_size=ncols), max_size=8))
    return ncols, rows


@settings(max_examples=300, deadline=None)
@given(kernel_systems())
@example((0, []))
@example((0, [{}, {}]))
@example((1, [{0: 0}, {}]))
@example((1, [{0: Fraction(-2, 3)}]))
# Reversed, this row is the pivot row {0: 4, 2: 2, 3: 1}; the kernel vector
# of free column 2 is then {2: 4, 0: -2}, with content 2.
@example((4, [{0: 1, 1: 2, 3: 4}]))
# The kernel rows {0: 1, 3: 1} and {1: 1, 2: 1} are in lead order, not in
# the order of their last columns.
@example((4, [{0: 1, 3: -1}, {1: 1, 2: -1}]))
def test_one_elimination_gives_the_canonical_kernel(system):
    ncols, rows = system
    rows = integer_rows(rows)
    kernel = assert_kernel_is_the_canonical_span(rows, ncols)
    assert rref_of({min(row): row for row in kernel._rows}) == kernel_by_gauss_jordan(rows, ncols)


def test_the_kernel_vectors_are_made_primitive():
    # Reversed, the row is the primitive pivot row {0: 4, 2: 2, 3: 1}, and the
    # kernel vector of free column 2 comes out as {2: 4, 0: -2}: reversed
    # back and divided by its content 2, it is {1: 2, 3: -1}.
    kernel = nullspace_of_rows([{0: 1, 1: 2, 3: 4}], 4)
    assert kernel._rows == ({0: 4, 3: -1}, {1: 2, 3: -1}, {2: 1})


@pytest.mark.parametrize("m", range(4, 9))
def test_one_elimination_gives_the_canonical_kernel_of_each_derivation_system(m):
    for q in [()] + list(all_q_lists(m, 2)):
        L = make_g_m_q(m, q)
        assert_kernel_is_the_canonical_span(_derivation_rows(L), L.dim**2)


def test_one_elimination_gives_the_canonical_kernel_of_a_dense_derivation_system():
    g = make_g_m_q(4, (4,))
    L = from_json_dict(in_basis(to_json_dict(g), random_basis(g.dim, 1)))
    assert L._den > 1
    assert_kernel_is_the_canonical_span(_derivation_rows(L), L.dim**2)


def test_span_canonicalizes_generators():
    a = Subspace(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace(3, [[2, 2, 2], [0, 0, -3], [1, 1, 1]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subspace(3, [[1, 0, 0], [0, 1, 1]])
    # Negative leads and rational entries, from dense vectors and from a
    # bracket product, reach one canonical form whose basis is the RREF.
    c = Subspace(3, [[-2, Fraction(1, 3), 0], [0, 0, Fraction(-5, 2)]])
    d = Subspace(3, [[6, -1, 0], [0, 0, 1]])
    assert c == d
    assert hash(c) == hash(d)
    assert c.basis == ((1, Fraction(-1, 6), 0), (0, 0, 1))
    # [X1, X2] = -2 X2 + 1/3 X3, [X1, X3] = -5/2 X3: X1 acts on an abelian ideal.
    L = LieAlgebra(3, {(0, 1): {1: -2, 2: Fraction(1, 3)}, (0, 2): {2: Fraction(-5, 2)}})
    product = bracket_subspaces(L, Subspace(3, [[1, 0, 0]]), Subspace(3, [[0, 1, 0]]))
    for other in (Subspace(3, [[0, -4, Fraction(2, 3)]]), Subspace(3, [[0, 3, Fraction(-1, 2)]])):
        assert other == product
        assert hash(other) == hash(product)
    assert product.basis == ((0, 1, Fraction(-1, 6)),)


def test_equal_subspaces_hash_equal_from_every_constructor(monkeypatch):
    # The plane x_1 = 2 x_0 of Q^3, from dense Fraction vectors, from integer
    # rows and as a kernel.
    built = [
        Subspace(3, [[Fraction(1, 2), 1, 0], [0, 0, Fraction(-1, 3)]]),
        Subspace._from_rows([{0: -3, 1: -6, 2: 7}, {2: 5}], 3),
        nullspace_of_rows([{0: 2, 1: -1}], 3),
    ]
    # The hash reads the canonical rows; no dense basis is built.
    monkeypatch.setattr(Subspace, "basis", property(lambda self: pytest.fail("hash built the dense basis")))
    for other in built[1:]:
        assert other == built[0]
        assert hash(other) == hash(built[0])


def test_subspace_dim_and_zero():
    assert Subspace(4).dim == 0
    assert Subspace.full(4).dim == 4
    assert Subspace(0).is_zero()


def test_subspace_contains_and_subset():
    u = Subspace(3, [[1, 0, 1], [0, 1, 0]])
    assert Subspace(3, [[2, 3, 2]]).is_subset(u)
    assert not Subspace(3, [[1, 0, 0]]).is_subset(u)
    assert Subspace(3, [[1, 1, 1]]).is_subset(u)
    assert not u.is_subset(Subspace(3, [[1, 1, 1]]))


def test_subspace_sum():
    u = Subspace(3, [[1, 0, 0]])
    w = Subspace(3, [[0, 1, 0]])
    assert Subspace(3, u.basis + w.basis) == Subspace(3, [[1, 0, 0], [0, 1, 0]])


def test_ambient_mismatch_raises():
    with pytest.raises(DimensionError):
        Subspace(2, [[1, 0]]).is_subset(Subspace(3, [[1, 0, 0]]))
    with pytest.raises(DimensionError):
        Subspace(2, [[1, 0, 0]])


def test_solve_unique_solution():
    m = Matrix([[1, 1], [1, -1]])
    assert solve(m, [3, 1]) == (Fraction(2), Fraction(1))


def test_solve_inconsistent():
    with pytest.raises(LinearSolveError):
        solve(Matrix([[1, 1], [1, 1]]), [0, 1])


def test_solve_underdetermined():
    with pytest.raises(LinearSolveError):
        solve(Matrix([[1, 1]]), [0])


def test_matrix_multiplication():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a.mul(b).entries == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))
    with pytest.raises(DimensionError):
        a.mul(Matrix([[1, 2, 3]]))


def test_matrix_rejects_ragged_rows():
    with pytest.raises(DimensionError):
        Matrix([[1, 2], [3]])


def test_matrix_rejects_a_negative_column_count():
    with pytest.raises(DimensionError):
        Matrix([], ncols=-3)
    # One row of no entries is a 1 x 0 matrix.
    for m, shape in ((Matrix([[]]), (1, 0)), (Matrix([[]], ncols=0), (1, 0)), (Matrix([], ncols=0), (0, 0))):
        assert m.shape == shape
        assert rank(m) == 0
    assert Matrix([[]]).entries == ((),)


def test_matrix_is_immutable():
    m = Matrix([[1]])
    with pytest.raises(AttributeError):
        m.entries = ()


# A Matrix holds the core's sparse integer rows over one denominator, kept
# reduced; `entries` reads the dense Fraction rows back.

entry_values = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6, max_denominator=12))


@st.composite
def dense_rows(draw, nrows=None, ncols=None):
    """Dense Fraction rows with mixed and negative denominators; some rows are zero."""
    nrows = draw(st.integers(1, 4)) if nrows is None else nrows
    ncols = draw(st.integers(1, 4)) if ncols is None else ncols
    row = st.lists(entry_values, min_size=ncols, max_size=ncols)
    return draw(st.lists(st.one_of(row, st.just([Fraction(0)] * ncols)), min_size=nrows, max_size=nrows))


@st.composite
def product_pairs(draw, square=False):
    """(a, b): dense rows of an n x k and a k x p matrix, with p = n when `square`."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    p = n if square else draw(st.integers(1, 4))
    return draw(dense_rows(n, k)), draw(dense_rows(k, p))


def identity(n):
    return Matrix([[int(r == c) for c in range(n)] for r in range(n)])


def dense_product(a, b):
    """The product of two dense row lists by the schoolbook triple loop."""
    inner, cols = range(len(b)), range(len(b[0]))
    return tuple(tuple(sum((Fraction(row[k]) * b[k][j] for k in inner), Fraction(0)) for j in cols) for row in a)


def assert_reduced(m):
    """The stored form: nonzero ints over a positive denominator that shares no factor with them all."""
    values = [v for row in m._rows for v in row.values()]
    assert all(type(v) is int and v for v in values)
    assert m._den > 0 and gcd(m._den, *values) == 1


@settings(max_examples=100, deadline=None)
@given(dense_rows())
@example([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(0), Fraction(0)]])
def test_a_matrix_reads_back_its_dense_rows(rows):
    m = Matrix(rows)
    expected = tuple(map(tuple, rows))
    assert m.entries == expected
    assert all(type(v) is Fraction for row in m.entries for v in row)
    assert_reduced(m)
    # A product with the identity, on either side, keeps the entries.
    for product in (identity(m.nrows).mul(m), m.mul(identity(m.ncols))):
        assert product.entries == expected
        assert_reduced(product)


@settings(max_examples=100, deadline=None)
@given(product_pairs())
@example(([[2]], [[Fraction(1, 2)]]))
def test_a_product_is_the_dense_triple_loop(pair):
    a, b = pair
    product = Matrix(a).mul(Matrix(b))
    assert product.entries == dense_product(a, b)
    assert_reduced(product)


@settings(max_examples=100, deadline=None)
@given(product_pairs(square=True), st.integers(-2, 2))
@example(([[2, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 1]]), 1)
def test_rank_matches_the_reverse_eliminator(pair, shift):
    a, b = pair
    product = Matrix(a).mul(Matrix(b))
    expected = dense_product(a, b)
    for m, dense in ((Matrix(a), a), (Matrix(b), b), (product, expected)):
        assert rank(m) == rank_reverse_elimination([{c: v for c, v in enumerate(row) if v} for row in dense])
    # Subtracting shift * I makes the rank depend on the product's scale.
    shifted = [[v - shift * (r == c) for c, v in enumerate(row)] for r, row in enumerate(product.entries)]
    oracle = [{c: v - shift * (r == c) for c, v in enumerate(row) if v != shift * (r == c)} for r, row in enumerate(expected)]
    assert rank(Matrix(shifted)) == rank_reverse_elimination(oracle)


def test_equal_matrices_built_different_ways_are_equal_and_hash_equal():
    a = Matrix([[2, 0], [1, 3]])
    b = Matrix([[Fraction(1, 2), 0], [Fraction(-1, 6), Fraction(1, 3)]])
    square = Matrix([[Fraction(1, 4), 0], [Fraction(-5, 36), Fraction(1, 9)]])
    for product, direct in ((a.mul(b), identity(2)), (b.mul(b), square)):
        assert product == direct
        assert hash(product) == hash(direct)
    # ad(x) of a Fraction x on a law with denominators, [X1, X2] = X3/2 and
    # [X1, X3] = 2/3 X4: ad(x) and its square against the dense entries.
    L = LieAlgebra(4, {(0, 1): {2: Fraction(1, 2)}, (0, 2): {3: Fraction(2, 3)}})
    assert L._den == 6
    ad = L.ad_matrix([Fraction(1, 3), 0, 0, 0])
    direct = Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, Fraction(1, 6), 0, 0], [0, 0, Fraction(2, 9), 0]])
    squared = Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, Fraction(1, 27), 0, 0]])
    for built, expected in ((ad, direct), (ad.mul(ad), squared)):
        assert built == expected
        assert hash(built) == hash(expected)
    assert Matrix([[1, 0]]) != Matrix([[2, 0]]) and Matrix([[1]]) != Matrix([[Fraction(1, 2)]])


@settings(max_examples=100, deadline=None)
@given(dense_rows(), st.data())
def test_solve_recovers_the_vector_a_full_rank_matrix_maps(rows, data):
    x = data.draw(st.lists(entry_values, min_size=len(rows[0]), max_size=len(rows[0])))
    m = Matrix(rows)
    rhs = [v for (v,) in dense_product(rows, [[v] for v in x])]
    if rank(m) == m.ncols:
        assert solve(m, rhs) == tuple(x)
    else:
        with pytest.raises(LinearSolveError):
            solve(m, rhs)


# Dense input is cleared once, where it enters: `Subspace(...)` scales each
# vector by the lcm of its denominators before the core reads it.


@st.composite
def fraction_vectors(draw):
    """(n, vectors): up to five dense vectors of Q^n, n from 0, with mixed denominators and zero entries."""
    n = draw(st.integers(0, 5))
    return n, draw(st.lists(st.lists(entry_values, min_size=n, max_size=n), max_size=5))


@settings(max_examples=200, deadline=None)
@given(fraction_vectors())
def test_a_span_of_fraction_vectors_is_the_rref(system):
    n, vectors = system
    expected = rref_gauss_jordan([dict(enumerate(v)) for v in vectors], n)
    assert Subspace(n, vectors).basis == tuple(tuple(expected[p].get(c, 0) for c in range(n)) for p in sorted(expected))
