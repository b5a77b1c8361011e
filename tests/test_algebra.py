import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecontract.algebra import (
    JacobiViolationError,
    LieAlgebra,
    MalformedAlgebraError,
    NotNilpotentError,
    _derivation_rows,
    _descending_series,
    _generators,
    _jordan_blocks,
    betti1,
    bracket_subspaces,
    center,
    centralizer,
    characteristic_sequence,
    check_jacobi,
    derivations,
    derived_subalgebra,
    from_brackets,
    from_json_dict,
    has_abelian_direct_factor,
    is_derivation,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    to_json_dict,
)
from liecontract.completeness import build_r_m, weight_system
from liecontract.exactlin import DimensionError, Matrix, Subspace, nullspace_of_rows
from liecontract.families import (
    all_q_lists,
    make_abelian,
    make_g_m,
    make_g_m_q,
    make_heisenberg_plus_abelian,
    make_model_filiform,
)
from oracles import (
    _bruteforce_derivation_rows,
    _unit_brackets,
    ad_power_ranks,
    center_by_brackets,
    derivation_by_brackets,
    derivation_nullity_bruteforce,
    derivation_nullity_mod_p,
    derived_algebra_by_brackets,
    generated_subalgebra_by_brackets,
    in_basis,
    jordan_type_by_powers,
    lower_central_series_by_brackets,
    random_basis,
    rank_reverse_elimination,
)


def unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


@pytest.fixture(scope="module")
def g4():
    return make_g_m(4)


# --- bracket ---------------------------------------------------------------


def test_bracket_chain_start(g4):
    assert g4.bracket(unit(9, 0), unit(9, 1)) == tuple(unit(9, 2))


def test_bracket_pairing_entry(g4):
    # [X4, X5] carries the (+1)^4 pairing coefficient onto X9
    assert g4.bracket(unit(9, 3), unit(9, 4)) == tuple(unit(9, 8))


def test_bracket_antisymmetry_on_basis(g4):
    assert g4.bracket(unit(9, 1), unit(9, 0)) == tuple(-v for v in unit(9, 2))


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=9, max_size=9))
def test_bracket_of_vector_with_itself_vanishes(x):
    g = make_g_m(4)
    assert all(v == 0 for v in g.bracket(x, x))


def test_bracket_length_mismatch(g4):
    with pytest.raises(DimensionError):
        g4.bracket([1, 0], unit(9, 0))


def test_structure_constant_signs(g4):
    assert g4.bracket(unit(9, 0), unit(9, 1))[2] == 1
    assert g4.bracket(unit(9, 1), unit(9, 0))[2] == -1
    assert g4.bracket(unit(9, 2), unit(9, 5))[8] == -1
    assert g4.bracket(unit(9, 1), unit(9, 1))[0] == 0


# --- the stored law --------------------------------------------------------


def test_laws_that_differ_by_a_common_factor_are_unequal():
    # Both store the integer 1 for [X1, X2] -> X3; only the cleared denominator differs.
    half = from_brackets(3, {(0, 1): {2: Fraction(1, 2)}})
    assert half != from_brackets(3, {(0, 1): {2: 1}})
    assert half == LieAlgebra(3, {(0, 1): {2: "1/2"}})


def test_a_law_with_denominators_reads_back_the_fractions_it_was_built_from():
    document = in_basis(to_json_dict(make_g_m_q(4, (4,))), random_basis(9, 1))
    tensor = {
        (b["i"] - 1, b["j"] - 1): {int(k) - 1: Fraction(c) for k, c in b["coeffs"].items()}
        for b in document["brackets"]
    }
    L = from_brackets(9, tensor)
    assert L._den > 1
    assert list(L.entries()) == [(i, j, k, tensor[i, j][k]) for (i, j) in sorted(tensor) for k in sorted(tensor[i, j])]
    assert to_json_dict(L)["brackets"] == document["brackets"]
    table = _unit_brackets(L)
    for a in range(9):
        for b in range(9):
            assert L.bracket(unit(9, a), unit(9, b)) == table[a][b]


# --- jacobi ----------------------------------------------------------------


def test_jacobi_holds_for_abelian():
    assert check_jacobi(make_abelian(4)).ok


def test_jacobi_holds_for_g4(g4):
    report = check_jacobi(g4)
    assert report.ok
    assert report.violations == ()


def test_jacobi_violation_is_located():
    # [X1,X2]=X3 and [X1,X3]=X1 cannot coexist: the (1,2,3) triple leaves -X3.
    bad = LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    report = check_jacobi(bad)
    assert not report.ok
    assert report.violations == ((0, 1, 2, 2, Fraction(-1)),)


# [X1,X2] = X3 and [X1,X3] = X1: not a Lie law (see the test above).
NON_LIE = {(0, 1): {2: 1}, (0, 2): {0: 1}}


def test_from_brackets_rejects_a_non_lie_table():
    with pytest.raises(JacobiViolationError) as excinfo:
        from_brackets(4, NON_LIE)
    assert excinfo.value.report.violations == ((0, 1, 2, 2, Fraction(-1)),)


def test_from_brackets_heisenberg():
    assert from_brackets(3, {(0, 1): {2: 1}}) == make_model_filiform(3)


def test_from_brackets_index_validation():
    with pytest.raises(DimensionError):
        from_brackets(3, {(1, 1): {2: 1}})
    with pytest.raises(DimensionError):
        from_brackets(3, {(0, 1): {5: 1}})


def test_a_non_lie_law_is_rejected_alike_as_a_table_and_as_json():
    doc = {"dim": 4, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}, {"i": 1, "j": 3, "coeffs": {"1": "1"}}]}
    message = "Jacobi identity fails on the basis triple (1, 2, 3): component 3 of the Jacobi sum is -1"
    errors = []
    for build in (lambda: from_brackets(4, NON_LIE), lambda: from_json_dict(doc)):
        with pytest.raises(JacobiViolationError) as excinfo:
            build()
        errors.append(excinfo.value)
    assert all(isinstance(e, MalformedAlgebraError) and str(e) == message for e in errors)


# --- center / centralizer ---------------------------------------------------


def test_center_of_abelian_is_everything():
    assert center(make_abelian(5)) == Subspace.full(5)


def test_center_of_g4_is_top_two(g4):
    assert center(g4) == Subspace(9, [unit(9, 7), unit(9, 8)])


def test_center_of_cut_family_unchanged():
    assert center(make_g_m_q(4, (4,))) == Subspace(9, [unit(9, 7), unit(9, 8)])


def test_centralizer_of_zero_subspace_is_everything(g4):
    assert centralizer(g4, Subspace(9)) == Subspace.full(9)


def test_centralizer_of_center_is_everything(g4):
    assert centralizer(g4, center(g4)) == Subspace.full(9)


def test_bracket_subspaces_rejects_a_foreign_ambient(g4):
    with pytest.raises(DimensionError):
        bracket_subspaces(g4, Subspace(3, [[1, 0, 0]]), Subspace(3, [[0, 1, 0]]))
    with pytest.raises(DimensionError):
        bracket_subspaces(g4, Subspace.full(12), Subspace.full(12))


# --- series ----------------------------------------------------------------


def test_lower_central_series_of_g4(g4):
    report = lower_central_series(g4)
    assert report.dims == (9, 7, 6, 5, 4, 3, 2, 0)
    assert report.nilindex == 7


def test_lower_central_series_of_cut_family():
    report = lower_central_series(make_g_m_q(4, (4,)))
    assert report.dims == (9, 5, 2, 0)
    assert report.nilindex == 3


def test_series_terms_are_descending(g4):
    report = lower_central_series(g4)
    for prev, cur in zip(report.terms, report.terms[1:]):
        assert cur.is_subset(prev)
        assert cur.dim < prev.dim


def test_abelian_series():
    report = lower_central_series(make_abelian(3))
    assert report.dims == (3, 0)
    assert report.nilindex == 1


def test_series_that_never_repeats_a_term_raises():
    # A step alternating between two distinct lines of the plane never
    # reaches zero nor repeats its last term, as a broken subspace equality
    # would behave; the series stops after dim + 1 terms instead of looping.
    lines = [Subspace(2, [unit(2, 0)]), Subspace(2, [unit(2, 1)])]

    def step(term):
        return lines[1] if term == lines[0] else lines[0]

    with pytest.raises(RuntimeError, match=r"dim \+ 1"):
        _descending_series(make_abelian(2), step)


def test_solvable_but_not_nilpotent_extension():
    r4 = build_r_m(4)
    assert lower_central_series(r4).nilindex is None
    assert is_solvable(r4)
    assert not is_nilpotent(r4)


def test_centralizer_dichotomy_at_the_middle(g4):
    report = lower_central_series(g4)
    # terms[0] is C^1 = g4, so C^4 is terms[3].
    cm = report.terms[3]
    cm_prev = report.terms[2]
    assert cm.is_subset(centralizer(g4, cm))
    assert not cm_prev.is_subset(centralizer(g4, cm_prev))


# --- the series, center and derived algebra against the oracles ---------------


def dense(L, seed):
    """L in a seeded dense basis with entries in [-2, 2], read back through the JSON boundary."""
    return from_json_dict(in_basis(to_json_dict(L), random_basis(L.dim, seed)))


def complement_of_derived(L):
    """S: the basis indices that are not pivots of the oracle's echelon form of [L, L]."""
    pivots = {next(c for c, x in enumerate(row) if x) for row in derived_algebra_by_brackets(_unit_brackets(L))}
    return tuple(c for c in range(L.dim) if c not in pivots)


def assert_subspace_invariants_match_the_oracles(L):
    brackets = _unit_brackets(L)
    series = lower_central_series_by_brackets(brackets)
    assert tuple(t.basis for t in lower_central_series(L).terms) == series
    assert center(L).basis == center_by_brackets(brackets)
    assert derived_subalgebra(L).basis == derived_algebra_by_brackets(brackets)
    # _generators is S on a nilpotent L (the oracle series reaches 0) and
    # every index otherwise, and what it returns generates L.
    generators = _generators(L)
    assert generators == (complement_of_derived(L) if not series[-1] else tuple(range(L.dim)))
    assert len(generated_subalgebra_by_brackets(brackets, generators)) == L.dim


@pytest.mark.parametrize("m", range(4, 11))
def test_series_center_and_derived_algebra_match_the_oracles_on_the_grid(m):
    # 168 gm(q..) with m = 4..10 and k <= 2, and their extensions rm(q..).
    for q in [()] + list(all_q_lists(m, 2)):
        g, r = make_g_m_q(m, q), build_r_m(m, q)
        assert_subspace_invariants_match_the_oracles(g)
        assert_subspace_invariants_match_the_oracles(r)
        # S generates every gm(q..).  S of an rm(q..) is its torus, which
        # generates only itself, so rm(q..) takes every index.
        assert _generators(g) == complement_of_derived(g), (m, q)
        assert _generators(r) == tuple(range(r.dim)), (m, q)
        if m <= 7:
            assert derivations(g).dim == derivation_nullity_bruteforce(g), (m, q)


@pytest.mark.parametrize("seed", [1, 2])
def test_series_center_derived_algebra_and_derivations_in_a_dense_basis(seed):
    L = dense(make_g_m_q(4, (4,)), seed)
    assert L._den > 1 and len(L._tensor) > 30
    assert_subspace_invariants_match_the_oracles(L)
    assert _generators(L) == complement_of_derived(L)
    # dim Der does not depend on the basis: it is the 22 of the adapted g4(4),
    # which the brute-force count confirms there.
    assert derivations(L).dim == 22


def assert_derivation_dim_is_proved(L):
    """dim Der(L) = derivations(L).dim, bounded from both sides by the oracles alone.

    From below: the basis matrices of derivations(L) are derivations on every
    basis pair and independent.  From above: rank_p <= rank_Q, so the mod-p
    nullity of the brute-force rows is at least dim Der.
    """
    n = L.dim
    der = derivations(L)
    assert derivation_by_brackets(L, *(Matrix([vec[r * n : (r + 1) * n] for r in range(n)]) for vec in der.basis))
    assert rank_reverse_elimination([{c: v for c, v in enumerate(vec) if v} for vec in der.basis]) == der.dim
    assert derivation_nullity_mod_p(L) == der.dim


# [X1,X2] = X3, [X2,X3] = X1, [X3,X1] = X2: [L, L] = L, and no ad(X_a) is diagonal.
SO3 = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
# [X1,X2] = X3, [X1,X3] = X3: S = (X1, X2) generates it, but it is not
# nilpotent, and no ad(X_a) is diagonal.
SOLV3 = {(0, 1): {2: 1}, (0, 2): {2: 1}}
# aff(1) in the basis (X1, X1 + X2): [Y1, Y2] = -Y1 + Y2.  No ad(Y_a) is
# diagonal, S = (Y2) and dim [S, L] = dim [L, L] = 1, but [S, [S, L]] = [S, L]
# never reaches 0, and Y2 alone generates only its own line.
AFF1_SKEWED = {(0, 1): {0: -1, 1: 1}}


@pytest.mark.parametrize(
    "name, series, center_dim, der_dim",
    [
        ("so3", (3,), 0, 3),
        ("so3+C", (4, 3), 1, 4),
        ("dense rm4(4)", (12, 9), 0, 12),
        ("solv3", (3, 1), 1, 4),
        ("skewed aff(1)", (2, 1), 0, 2),
    ],
)
def test_non_nilpotent_and_perfect_algebras_match_the_oracles(name, series, center_dim, der_dim):
    L = {
        "so3": LieAlgebra(3, SO3),
        "so3+C": LieAlgebra(4, SO3),
        "dense rm4(4)": dense(build_r_m(4, (4,)), 1),
        "solv3": LieAlgebra(3, SOLV3),
        "skewed aff(1)": LieAlgebra(2, AFF1_SKEWED),
    }[name]
    assert lower_central_series(L).dims == series
    assert center(L).dim == center_dim
    assert_subspace_invariants_match_the_oracles(L)
    assert derivations(L).dim == der_dim
    assert_derivation_dim_is_proved(L)
    if name != "dense rm4(4)":  # the exact brute-force count takes a minute on its dense rows
        assert derivation_nullity_bruteforce(L) == der_dim
    # None of them is nilpotent, so each takes every index, also the dense
    # rm4(4) and solv3, which S generates.
    assert _generators(L) == tuple(range(L.dim))


@pytest.mark.parametrize("n, dims", [(0, (0,)), (3, (3, 0))])
def test_abelian_algebras_take_every_index_as_s(n, dims):
    # [L, L] = 0, so S is every index; the dim-0 series is (0,) and counts as reaching 0.
    L = make_abelian(n)
    assert lower_central_series(L).dims == dims
    assert lower_central_series(L).nilindex == len(dims) - 1
    assert _generators(L) == tuple(range(n))
    assert center(L).dim == n
    assert derivations(L).dim == n * n
    assert_subspace_invariants_match_the_oracles(L)


# --- derivations -------------------------------------------------------------


def test_derivations_of_abelian_is_gl():
    assert derivations(make_abelian(3)).dim == 9


def test_derivations_of_heisenberg():
    assert derivations(make_model_filiform(3)).dim == 6


def test_derivation_dims_grow_under_cutting(g4):
    assert derivations(g4).dim == 15
    assert derivations(make_g_m_q(4, (4,))).dim == 22
    assert derivations(make_g_m_q(4, (5,))).dim == 19


def test_derivation_system_matrix_shape_and_golden_row():
    heis = make_model_filiform(3)
    rows = _derivation_rows(heis)
    # Nonzero integer rows only: three for the pair (X1, X2), one each for
    # (X1, X3) and (X2, X3).
    assert len(rows) == 5
    assert all(type(v) is int and v for row in rows for v in row.values())
    # pair (X1, X2), output component X3: D33 - D11 - D22 = 0
    assert rows[2] == {0: -1, 4: -1, 8: 1}


def test_inner_derivations_sit_inside_derivations(g4):
    ads = [g4.ad_matrix(unit(9, i)) for i in range(9)]
    inner = Subspace(81, [[v for row in ad.entries for v in row] for ad in ads])
    assert inner.dim == 9 - center(g4).dim
    assert inner.is_subset(derivations(g4))


def test_ad_matrices_are_derivations(g4):
    for i in (0, 1, 3):
        assert is_derivation(g4, g4.ad_matrix(unit(9, i)))


def test_non_derivation_is_rejected():
    heis = make_model_filiform(3)
    assert not is_derivation(heis, Matrix([[int(r == c) for c in range(3)] for r in range(3)]))


# `_derivation_rows` assembles each Leibniz equation from the nonzeros of the
# tensor; the oracle's rows probe every elementary matrix through the dense
# table of basis brackets.  The same kernel means the same equations.


def assert_derivations_are_the_kernel_of_the_bruteforce_rows(L):
    assert derivations(L) == nullspace_of_rows(_bruteforce_derivation_rows(L), L.dim**2)


@pytest.mark.parametrize("m", range(4, 8))
def test_derivations_of_each_family_member_are_the_kernel_of_the_bruteforce_rows(m):
    # dim Der against derivation_nullity_bruteforce on the same grid is
    # checked by test_series_center_and_derived_algebra_match_the_oracles_on_the_grid.
    for q in [()] + list(all_q_lists(m, 2)):
        assert_derivations_are_the_kernel_of_the_bruteforce_rows(make_g_m_q(m, q))


@pytest.mark.parametrize("name", ["dense g4(4)", "dense rm4(4)", "solv3", "so3"])
def test_derivations_of_dense_and_non_nilpotent_algebras_are_the_kernel_of_the_bruteforce_rows(name):
    L = {
        "dense g4(4)": dense(make_g_m_q(4, (4,)), 1),
        "dense rm4(4)": dense(build_r_m(4, (4,)), 1),
        "solv3": LieAlgebra(3, SOLV3),
        "so3": LieAlgebra(3, SO3),
    }[name]
    assert_derivations_are_the_kernel_of_the_bruteforce_rows(L)
    # The brute-force count of the dense rm4(4) takes most of a minute; its
    # dim is bounded from both sides in
    # test_non_nilpotent_and_perfect_algebras_match_the_oracles.
    if name != "dense rm4(4)":
        assert derivations(L).dim == derivation_nullity_bruteforce(L)


# --- bracket-driven primitives against the dense bracket ----------------------

# [X1,X2] = 1/2 X2, [X1,X3] = -3/4 X3, [X1,X4] = -1/4 X4, [X2,X3] = 5/7 X4:
# a solvable algebra whose structure constants are not integers.
FRACTIONAL = LieAlgebra(
    4,
    {
        (0, 1): {1: Fraction(1, 2)},
        (0, 2): {2: Fraction(-3, 4)},
        (0, 3): {3: Fraction(-1, 4)},
        (1, 2): {3: Fraction(5, 7)},
    },
)
PROPERTY_ALGEBRAS = {
    "g4": make_g_m(4),
    "g5(3,6)": make_g_m_q(5, (3, 6)),
    "r4": build_r_m(4),
    "fractional": FRACTIONAL,
}

# Many zero coordinates, so sparse as well as generic vectors are drawn.
coordinates = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def algebra_with_vectors(draw, min_count, max_count):
    L = PROPERTY_ALGEBRAS[draw(st.sampled_from(sorted(PROPERTY_ALGEBRAS)))]
    vector = st.lists(coordinates, min_size=L.dim, max_size=L.dim)
    return L, draw(st.lists(vector, min_size=min_count, max_size=max_count))


def test_property_algebras_are_lie():
    assert all(check_jacobi(L).ok for L in PROPERTY_ALGEBRAS.values())


@settings(max_examples=60, deadline=None)
@given(algebra_with_vectors(2, 2))
def test_ad_matrix_matches_bracket(case):
    L, (x, y) = case
    ad = L.ad_matrix(x).entries
    assert tuple(sum(a * v for a, v in zip(row, y)) for row in ad) == L.bracket(x, y)


@settings(max_examples=60, deadline=None)
@given(algebra_with_vectors(1, 5), st.integers(1, 4))
def test_bracket_subspaces_matches_bracket(case, split):
    L, vectors = case
    A = Subspace(L.dim, vectors[:split])
    B = Subspace(L.dim, vectors[split:])
    # A = L is the path of the lower central series and of [L, L].
    for A, B in ((A, B), (Subspace.full(L.dim), B), (A, Subspace(L.dim))):
        expected = Subspace(L.dim, [L.bracket(a, b) for a in A.basis for b in B.basis])
        assert bracket_subspaces(L, A, B) == expected


@settings(max_examples=60, deadline=None)
@given(algebra_with_vectors(0, 3))
def test_centralizer_matches_bracket(case):
    L, vectors = case
    n = L.dim
    S = Subspace(n, vectors)
    C = centralizer(L, S)
    for c in C.basis:
        for v in S.basis:
            assert not any(L.bracket(c, v))
    probe_rows = []
    for v in S.basis:
        brackets = [L.bracket(unit(n, i), v) for i in range(n)]
        for s in range(n):
            probe_rows.append({i: w[s] for i, w in enumerate(brackets) if w[s]})
    assert C.dim == n - rank_reverse_elimination(probe_rows)


# is_subset reduces each row of A against B's canonical rows, which already
# form a reduced echelon form.  The rank test eliminates B's rows and A's
# together and compares the dimension with dim B.


def is_subset_by_rank(A, B):
    return Subspace._from_rows(B._rows + A._rows, B.ambient_dim).dim == B.dim


def assert_is_subset_agrees_with_the_rank_test(A, B):
    """A.is_subset(B) equals the rank test and leaves the canonical rows of both as they were."""
    rows_a, rows_b = copy.deepcopy(A._rows), copy.deepcopy(B._rows)
    answer = A.is_subset(B)
    assert (A._rows, B._rows) == (rows_a, rows_b)
    assert answer == is_subset_by_rank(A, B)
    return answer


@settings(max_examples=60, deadline=None)
@given(algebra_with_vectors(0, 4))
def test_is_subset_agrees_with_the_rank_test(case):
    L, vectors = case
    n = L.dim
    A = Subspace(n, vectors)
    half = Subspace._from_rows(A._rows[: A.dim // 2], n)
    spaces = [Subspace(n), Subspace.full(n), A, half, center(L), derived_subalgebra(L), centralizer(L, A)]
    for X in spaces:
        for Y in spaces:
            assert_is_subset_agrees_with_the_rank_test(X, Y)
    assert assert_is_subset_agrees_with_the_rank_test(half, A)


def test_is_subset_on_the_zero_an_equal_a_proper_subspace_and_a_non_member(g4):
    terms = lower_central_series(g4).terms
    zero, whole = terms[-1], terms[0]
    # The canonical rows of the series of g4 are unit rows, so `_reduce` runs
    # with multiplier 1 and would update an uncopied row of A in place.
    assert all(len(row) == 1 for term in terms for row in term._rows)
    assert assert_is_subset_agrees_with_the_rank_test(zero, center(g4))
    assert assert_is_subset_agrees_with_the_rank_test(center(g4), Subspace(9, center(g4).basis))
    assert assert_is_subset_agrees_with_the_rank_test(terms[3], terms[2])
    assert not assert_is_subset_agrees_with_the_rank_test(terms[2], terms[3])
    assert not assert_is_subset_agrees_with_the_rank_test(Subspace(9, [unit(9, 0)]), derived_subalgebra(g4))
    assert not assert_is_subset_agrees_with_the_rank_test(whole, zero)


@settings(max_examples=40, deadline=None)
@given(algebra_with_vectors(1, 1), st.data())
def test_is_derivation_matches_bracket(case, data):
    L, (x,) = case
    n = L.dim
    ad = L.ad_matrix(x)
    assert is_derivation(L, ad) and derivation_by_brackets(L, ad)
    r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    bumped = Matrix(
        [[ad.entries[i][j] + (1 if (i, j) == (r, c) else 0) for j in range(n)] for i in range(n)]
    )
    assert is_derivation(L, bumped) == derivation_by_brackets(L, bumped)


# Rescaling the basis X_i -> l_i X_i gives C^k_ij l_i l_j / l_k: the same
# algebra with mixed denominators, so the derivation system is built from a
# tensor whose lcm scaling is not 1.
nonzero_scalars = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool)


@st.composite
def rescaled_algebras(draw):
    name = draw(st.sampled_from(["g4", "g5(3,6)", "r4", "fractional"]))
    L = PROPERTY_ALGEBRAS[name]
    if name == "fractional":
        return L
    lam = draw(st.lists(nonzero_scalars, min_size=L.dim, max_size=L.dim))
    tensor = {}
    for (i, j, k, c) in L.entries():
        tensor.setdefault((i, j), {})[k] = c * lam[i] * lam[j] / lam[k]
    return LieAlgebra(L.dim, tensor)


@settings(max_examples=10, deadline=None)
@given(rescaled_algebras())
def test_derivations_of_fractional_tensors_match_bruteforce(L):
    n = L.dim
    der = derivations(L)
    assert der.dim == derivation_nullity_bruteforce(L)
    basis = [Matrix([vec[r * n : (r + 1) * n] for r in range(n)]) for vec in der.basis]
    assert derivation_by_brackets(L, *basis)


# --- characteristic sequence -------------------------------------------------


def test_characteristic_sequence_of_abelian():
    assert characteristic_sequence(make_abelian(4)).blocks == (1, 1, 1, 1)
    assert characteristic_sequence(make_abelian(4)).is_linear


def test_characteristic_sequence_of_filiform():
    seq = characteristic_sequence(make_model_filiform(8))
    assert seq.blocks == (7, 1)
    assert seq.is_linear


def test_characteristic_sequence_of_g4(g4):
    assert characteristic_sequence(g4).blocks == (7, 1, 1)


def test_characteristic_sequence_of_cut_families():
    assert characteristic_sequence(make_g_m_q(4, (4,))).blocks == (3, 3, 2, 1)
    assert characteristic_sequence(make_g_m_q(4, (5,))).blocks == (4, 4, 1)
    assert characteristic_sequence(make_g_m_q(4, (3,))).blocks == (5, 2, 1, 1)


def test_characteristic_sequence_blocks_sum_to_dim():
    for algebra in (make_g_m(5), make_g_m_q(5, (3, 6)), make_heisenberg_plus_abelian(4)):
        seq = characteristic_sequence(algebra)
        assert sum(seq.blocks) == algebra.dim
        assert tuple(sorted(seq.blocks, reverse=True)) == seq.blocks


def test_characteristic_sequence_requires_nilpotent():
    with pytest.raises(NotNilpotentError):
        characteristic_sequence(build_r_m(4))


def complement_candidates(L):
    """The prime-weighted vector on the coordinate complement of [L, L], then its unit vectors."""
    leads = {next(c for c, v in enumerate(row) if v) for row in derived_subalgebra(L).basis}
    complement = [c for c in range(L.dim) if c not in leads]
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    generic = [0] * L.dim
    for p, c in zip(primes, complement):
        generic[c] = p
    return [generic] + [[int(c == d) for d in range(L.dim)] for c in complement]


def assert_jordan_blocks_match_the_oracle(L, candidates):
    """`_jordan_blocks` gives the oracle's Jordan type and its ranks r_0 = n, ..., 0 for each x."""
    for x in candidates:
        assert _jordan_blocks(L, x) == (jordan_type_by_powers(L, x), ad_power_ranks(L, x)), x


@pytest.mark.parametrize("m", range(4, 9))
def test_characteristic_sequence_is_certified_on_the_grid(m):
    for q in [()] + list(all_q_lists(m, 2)):
        L = make_g_m_q(m, q)
        seq = characteristic_sequence(L)
        candidates = complement_candidates(L)
        assert seq.certified, (m, q)
        assert seq.witness == tuple(candidates[0]), (m, q)
        assert seq.blocks == max(jordan_type_by_powers(L, x) for x in candidates), (m, q)
        assert_jordan_blocks_match_the_oracle(L, candidates)


def test_characteristic_sequence_below_the_rank_bound_is_not_certified():
    # The free 4-step nilpotent algebra on X1, X2: the rank bound is
    # u = 8,4,3,2,0, and no candidate gets past the ranks 8,4,2,1,0.
    L = LieAlgebra(8, {
        (0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1},
        (0, 3): {5: 1}, (1, 3): {6: 1}, (0, 4): {6: 1}, (1, 4): {7: 1},
    })
    assert check_jacobi(L).ok
    seq = characteristic_sequence(L)
    assert seq.blocks == (4, 2, 1, 1)
    assert not seq.certified
    assert seq.blocks == max(jordan_type_by_powers(L, x) for x in complement_candidates(L))
    assert jordan_type_by_powers(L, seq.witness) == seq.blocks
    assert_jordan_blocks_match_the_oracle(L, complement_candidates(L))


def test_invariants_are_computed_once_per_algebra():
    L = make_g_m_q(5, (3, 6))
    for invariant in (check_jacobi, lower_central_series, center, derived_subalgebra, weight_system):
        assert invariant(L) is invariant(L)
    assert lower_central_series(L) == lower_central_series(make_g_m_q(5, (3, 6)))
    with pytest.raises(AttributeError):
        L.dim = 3
    with pytest.raises(AttributeError):
        L._memo = {}


# --- global invariants --------------------------------------------------------


def test_betti1_values(g4):
    assert betti1(make_abelian(6)) == 6
    assert betti1(g4) == 2
    assert betti1(make_g_m_q(4, (4,))) == 4


def test_abelian_factor_detection(g4):
    assert has_abelian_direct_factor(make_abelian(2))
    assert has_abelian_direct_factor(make_heisenberg_plus_abelian(4))
    assert not has_abelian_direct_factor(g4)
    assert not has_abelian_direct_factor(make_g_m_q(4, (4,)))
    with pytest.raises(NotNilpotentError):
        has_abelian_direct_factor(build_r_m(4))


def test_derived_subalgebra_of_heisenberg_plus_abelian():
    algebra = make_heisenberg_plus_abelian(5)
    assert derived_subalgebra(algebra).dim == 1


# --- JSON ---------------------------------------------------------------------


def round_trip(algebra):
    return from_json_dict(json.loads(json.dumps(to_json_dict(algebra))))


def test_json_round_trip(g4):
    assert round_trip(g4) == g4


def test_json_round_trip_preserves_labels_and_fractions():
    algebra = LieAlgebra(3, {(0, 1): {2: Fraction(1, 2)}}, basis_labels=("A", "B", "C"))
    restored = round_trip(algebra)
    assert restored == algebra
    assert restored.basis_labels == ("A", "B", "C")
    assert '"1/2"' in json.dumps(to_json_dict(algebra))


def test_json_dict_shape(g4):
    doc = to_json_dict(g4, family={"family": "gm", "m": 4})
    assert doc["dim"] == 9
    assert doc["basis"][0] == "X1"
    assert doc["family"] == {"family": "gm", "m": 4}
    first = doc["brackets"][0]
    assert first == {"i": 1, "j": 2, "coeffs": {"3": "1"}}


def test_json_parse_accepts_plain_document():
    doc = {
        "dim": 3,
        "basis": ["X1", "X2", "X3"],
        "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "2/3"}}],
    }
    algebra = from_json_dict(doc)
    assert list(algebra.entries()) == [(0, 1, 2, Fraction(2, 3))]
    assert to_json_dict(algebra) == doc


def test_json_target_key_must_be_the_string_to_json_dict_writes():
    doc = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {3: "1"}}]}
    with pytest.raises(MalformedAlgebraError, match="bad target index 3"):
        from_json_dict(doc)
