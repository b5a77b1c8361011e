import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecontract.algebra import center, check_jacobi, derived_subalgebra
from liecontract.contraction import (
    DivergentLimitError,
    NecessaryConditionsReport,
    check_redundancy,
    heisenberg_exponents,
    limit_law,
    necessary_conditions,
    scale_law,
    solve_exponents,
)
from liecontract.exactlin import DimensionError
from liecontract.families import (
    InvalidFamilyError,
    all_q_lists,
    deleted_chain_targets,
    make_abelian,
    make_g_m,
    make_g_m_q,
    make_heisenberg_plus_abelian,
    make_model_filiform,
)
from oracles import forward_exponents

PARAM_CHOICES = [(1, 1), (2, 5), (0, 3)]


def test_exponents_single_cut_examples():
    assert solve_exponents(4, (4,)) == (0, 1, 1, 2, 2, 3, 3, 3, 4)
    assert solve_exponents(4, (5,)) == (0, 1, 1, 1, 2, 2, 2, 2, 3)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_exponents_match_forward_substitution(m):
    for q in all_q_lists(m, 2):
        deleted = deleted_chain_targets(m, q)
        for (n1, n2) in PARAM_CHOICES:
            assert solve_exponents(m, q, n1, n2) == forward_exponents(m, deleted, n1, n2)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_chain_offsets_sit_exactly_on_the_cuts(m):
    for q in all_q_lists(m, 2):
        deleted = deleted_chain_targets(m, q)
        a = solve_exponents(m, q)
        for j in range(3, 2 * m + 1):
            offset = a[0] + a[j - 2] - a[j - 1]
            assert offset == (-1 if j in deleted else 0)


@given(n1=st.integers(min_value=-3, max_value=5), n2=st.integers(min_value=-3, max_value=5))
def test_exponents_are_affine_in_the_parameters(n1, n2):
    base = solve_exponents(5, (3, 6), 0, 0)
    du = solve_exponents(5, (3, 6), 1, 0)
    dv = solve_exponents(5, (3, 6), 0, 1)
    got = solve_exponents(5, (3, 6), n1, n2)
    assert got == tuple(b + n1 * (u - b) + n2 * (v - b) for b, u, v in zip(base, du, dv))


def test_law_is_independent_of_the_parameters():
    g4 = make_g_m(4)
    laws = {scale_law(g4, solve_exponents(4, (4,), n1, n2)) for (n1, n2) in PARAM_CHOICES}
    assert len(laws) == 1


def test_small_m_rejected():
    with pytest.raises(InvalidFamilyError):
        solve_exponents(3)
    with pytest.raises(InvalidFamilyError):
        heisenberg_exponents(3)


@pytest.mark.parametrize("m,q", [(4, (4,)), (5, (3, 6)), (6, (5,)), (7, (3, 5, 8))])
def test_pairing_balance_holds(m, q):
    assert check_redundancy(m, q)


def test_scale_law_exponent_pattern():
    g4 = make_g_m(4)
    law = scale_law(g4, solve_exponents(4, (4,)))
    negative = {(i, j, k) for (i, j, k, _, e) in law.entries if e < 0}
    assert negative == {(0, 2, 3), (0, 4, 5)}
    for (i, j, k, _, e) in law.entries:
        if k == 8:
            assert e == 0


def test_scale_law_zero_vector_keeps_everything():
    g4 = make_g_m(4)
    law = scale_law(g4, (0,) * 9)
    assert all(e == 0 for (_, _, _, _, e) in law.entries)
    assert limit_law(law) == g4


def test_scale_law_to_zero_negates():
    g4 = make_g_m(4)
    a = solve_exponents(4, (4,))
    forward = scale_law(g4, a)
    backward = scale_law(g4, tuple(-x for x in a))
    assert backward.entries == tuple((i, j, k, c, -e) for (i, j, k, c, e) in forward.entries)


def test_scale_law_rejects_bad_input():
    g4 = make_g_m(4)
    with pytest.raises(DimensionError):
        scale_law(g4, (0, 1, 2))


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_limit_is_the_cut_family(m):
    g = make_g_m(m)
    for q in all_q_lists(m, 2):
        limit = limit_law(scale_law(g, solve_exponents(m, q)))
        assert limit == make_g_m_q(m, q)


LIMIT_SOURCES = {
    "g4": make_g_m(4),
    "g4(4)": make_g_m_q(4, (4,)),
    "g5": make_g_m(5),
    "g5(3,6)": make_g_m_q(5, (3, 6)),
    "L6": make_model_filiform(6),
    "h3+C2": make_heisenberg_plus_abelian(4),
}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(LIMIT_SOURCES)),
    data=st.data(),
)
def test_limit_of_any_diagonal_scaling_is_lie(name, data):
    """limit_law does not sweep Jacobi; the limit of a scaled Lie law is Lie.

    The exponent range is symmetric, so it covers t -> 0 (negated exponents) too.
    """
    L = LIMIT_SOURCES[name]
    a = data.draw(st.lists(st.integers(-3, 3), min_size=L.dim, max_size=L.dim))
    try:
        limit = limit_law(scale_law(L, a))
    except DivergentLimitError:
        return
    assert check_jacobi(limit).ok


def test_divergent_direction_names_the_entry():
    g4 = make_g_m(4)
    law = scale_law(g4, tuple(-x for x in solve_exponents(4, (4,))))
    with pytest.raises(DivergentLimitError, match=r"\(1,3,4\)"):
        limit_law(law)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_heisenberg_degeneration(m):
    exponents = heisenberg_exponents(m)
    assert exponents == (-1,) + (1,) * (2 * m - 1) + (2,)
    limit = limit_law(scale_law(make_g_m(m), exponents))
    assert limit == make_heisenberg_plus_abelian(m)
    assert derived_subalgebra(limit).dim == 1
    assert center(limit).dim == 3


def test_heisenberg_exponents_also_degenerate_the_cut_families():
    exponents = heisenberg_exponents(4)
    for q in all_q_lists(4, 2):
        limit = limit_law(scale_law(make_g_m_q(4, q), exponents))
        assert limit == make_heisenberg_plus_abelian(4)


def test_necessary_conditions_on_identity_pair():
    g4 = make_g_m(4)
    report = necessary_conditions(g4, g4)
    assert report.der_dims == (15, 15)
    assert report.derived_dims == (7, 7)
    assert report.center_dims == (2, 2)
    assert report.ranks == (2, 2)
    assert report.all_hold()
    assert not report.all_hold(strict_der=True)


def test_necessary_conditions_on_single_cut():
    report = necessary_conditions(make_g_m(4), make_g_m_q(4, (4,)))
    assert report.der_dims == (15, 22)
    assert report.derived_dims == (7, 5)
    assert report.center_dims == (2, 2)
    assert report.ranks == (2, 3)
    assert report.all_hold(strict_der=True)


def test_necessary_conditions_against_abelian_limit():
    report = necessary_conditions(make_g_m(4), make_abelian(9))
    assert report.der_dims == (15, 81)
    assert report.derived_dims == (7, 0)
    assert report.center_dims == (2, 9)
    assert report.ranks == (2, 9)
    assert report.all_hold(strict_der=True)


def test_necessary_conditions_detect_a_non_contraction():
    report = necessary_conditions(make_g_m_q(4, (4,)), make_g_m(4))
    assert report.der_dims == (22, 15)
    assert not report.all_hold()


# Every source/limit pair equal: each condition sits exactly on its boundary.
EQUAL_REPORT = NecessaryConditionsReport(
    der_dims=(15, 15), derived_dims=(7, 7), center_dims=(2, 2), ranks=(2, 2)
)


@pytest.mark.parametrize(
    "field,pair",
    [("der_dims", (15, 14)), ("derived_dims", (7, 8)), ("center_dims", (2, 1)), ("ranks", (2, 1))],
    ids=["der-shrinks", "derived-grows", "center-shrinks", "rank-drops"],
)
def test_all_hold_fails_when_one_condition_breaks(field, pair):
    broken = dataclasses.replace(EQUAL_REPORT, **{field: pair})
    assert not broken.all_hold()
    assert not broken.all_hold(strict_der=True)


def test_equal_der_fails_only_when_strict():
    assert EQUAL_REPORT.all_hold()
    assert not EQUAL_REPORT.all_hold(strict_der=True)
    assert dataclasses.replace(EQUAL_REPORT, der_dims=(15, 16)).all_hold(strict_der=True)


def test_necessary_conditions_need_matching_dimension():
    with pytest.raises(DimensionError):
        necessary_conditions(make_g_m(4), make_abelian(5))


def test_parametric_law_serialization():
    law = scale_law(make_g_m(4), solve_exponents(4, (4,)))
    doc = law.to_json_dict()
    assert doc["dim"] == 9
    assert {"i": 1, "j": 3, "k": 4, "c": "1", "e": -1} in doc["entries"]
    assert {"i": 4, "j": 5, "k": 9, "c": "1", "e": 0} in doc["entries"]


def test_exponent_vector_length():
    assert len(solve_exponents(5, (3,))) == 11
