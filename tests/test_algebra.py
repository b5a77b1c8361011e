import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecontract.algebra import (
    JacobiViolationError,
    LieAlgebra,
    MaurerCartanForm,
    NotNilpotentError,
    _derivation_rows,
    betti1,
    bracket_subspaces,
    center,
    centralizer,
    characteristic_sequence,
    check_jacobi,
    derivations,
    derived_series,
    derived_subalgebra,
    flatten_matrix,
    from_json_dict,
    from_maurer_cartan,
    has_abelian_direct_factor,
    is_derivation,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    to_json_dict,
)
from liecontract.completeness import build_r_m
from liecontract.exactlin import DimensionError, Matrix, Subspace
from liecontract.families import (
    make_abelian,
    make_g_m,
    make_g_m_q,
    make_heisenberg_plus_abelian,
    make_model_filiform,
)
from oracles import rank_reverse_elimination


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
    assert g4.fiber(0, 1).get(2, 0) == 1
    assert g4.fiber(1, 0).get(2, 0) == -1
    assert g4.fiber(2, 5).get(8, 0) == -1
    assert g4.fiber(1, 1).get(0, 0) == 0


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


def test_from_maurer_cartan_rejects_non_lie_forms():
    form = MaurerCartanForm(dim=4, two_forms={2: [(0, 1, 1)], 0: [(0, 2, 1)]})
    with pytest.raises(JacobiViolationError) as excinfo:
        from_maurer_cartan(form)
    assert excinfo.value.report.violations


def test_from_maurer_cartan_heisenberg():
    form = MaurerCartanForm(dim=3, two_forms={2: [(0, 1, 1)]})
    algebra = from_maurer_cartan(form)
    assert algebra == make_model_filiform(3)


def test_maurer_cartan_index_validation():
    with pytest.raises(DimensionError):
        MaurerCartanForm(dim=3, two_forms={2: [(1, 1, 1)]})
    with pytest.raises(DimensionError):
        MaurerCartanForm(dim=3, two_forms={5: [(0, 1, 1)]})


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


def test_solvable_but_not_nilpotent_extension():
    r4 = build_r_m(4)
    assert lower_central_series(r4).nilindex is None
    assert derived_series(r4).nilindex is not None
    assert is_solvable(r4)
    assert not is_nilpotent(r4)


def test_centralizer_dichotomy_at_the_middle(g4):
    report = lower_central_series(g4)
    # terms[0] is C^1 = g4, so C^4 is terms[3].
    cm = report.terms[3]
    cm_prev = report.terms[2]
    assert cm.is_subset(centralizer(g4, cm))
    assert not cm_prev.is_subset(centralizer(g4, cm_prev))


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
    blocks = list(_derivation_rows(heis))
    # One block per pair i < j, one row per output component.
    assert [len(block) for block in blocks] == [3, 3, 3]
    # pair (X1, X2), output component X3: D33 - D11 - D22 = 0
    assert blocks[0][2] == {0: -1, 4: -1, 8: 1}


def test_inner_derivations_sit_inside_derivations(g4):
    inner = Subspace(81, [flatten_matrix(g4.ad_matrix(unit(9, i))) for i in range(9)])
    assert inner.dim == 9 - center(g4).dim
    assert inner.is_subset(derivations(g4))


def test_ad_matrices_are_derivations(g4):
    for i in (0, 1, 3):
        assert is_derivation(g4, g4.ad_matrix(unit(9, i)))


def test_non_derivation_is_rejected():
    heis = make_model_filiform(3)
    assert not is_derivation(heis, Matrix.identity(3))


def test_flatten_matches_unknown_layout(g4):
    ad = g4.ad_matrix(unit(9, 0))
    flat = flatten_matrix(ad)
    assert flat[2 * 9 + 1] == ad.entries[2][1] == 1


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


def derivation_by_brackets(L, M):
    """D[X_i,X_j] = [DX_i,X_j] + [X_i,DX_j] on every basis pair, via the dense bracket."""
    n = L.dim
    units = [unit(n, i) for i in range(n)]
    cols = [[M.entries[s][r] for s in range(n)] for r in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = M.matvec(L.bracket(units[i], units[j]))
            a, b = L.bracket(cols[i], units[j]), L.bracket(units[i], cols[j])
            if lhs != tuple(u + v for u, v in zip(a, b)):
                return False
    return True


def test_property_algebras_are_lie():
    assert all(check_jacobi(L).ok for L in PROPERTY_ALGEBRAS.values())


@settings(max_examples=60, deadline=None)
@given(algebra_with_vectors(2, 2))
def test_ad_matrix_matches_bracket(case):
    L, (x, y) = case
    assert L.ad_matrix(x).matvec(y) == L.bracket(x, y)


@settings(max_examples=60, deadline=None)
@given(algebra_with_vectors(1, 5), st.integers(1, 4))
def test_bracket_subspaces_matches_bracket(case, split):
    L, vectors = case
    A = Subspace(L.dim, vectors[:split])
    B = Subspace(L.dim, vectors[split:])
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
    assert algebra.fiber(0, 1).get(2, 0) == Fraction(2, 3)
    assert to_json_dict(algebra) == doc
