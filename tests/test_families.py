import pytest

from liecontract.algebra import (
    betti1,
    center,
    check_jacobi,
    derived_subalgebra,
    has_abelian_direct_factor,
    lower_central_series,
)
from liecontract.exactlin import Subspace
from liecontract.families import (
    FamilySpec,
    InvalidFamilyError,
    all_q_lists,
    deleted_chain_targets,
    make_abelian,
    make_g_m,
    make_g_m_q,
    make_heisenberg_plus_abelian,
    make_model_filiform,
)


def entry_set(algebra):
    return {(i, j, k, c) for (i, j, k, c) in algebra.entries()}


def test_g4_tensor_is_exactly_the_nine_brackets():
    g4 = make_g_m(4)
    assert g4.dim == 9
    assert entry_set(g4) == {
        (0, 1, 2, 1), (0, 2, 3, 1), (0, 3, 4, 1), (0, 4, 5, 1), (0, 5, 6, 1), (0, 6, 7, 1),
        (1, 6, 8, 1), (2, 5, 8, -1), (3, 4, 8, 1),
    }


def test_g_m_center_is_top_two():
    for m in (4, 5, 6):
        g = make_g_m(m)
        n = 2 * m + 1
        expected = Subspace(n, [
            [1 if c == n - 2 else 0 for c in range(n)],
            [1 if c == n - 1 else 0 for c in range(n)],
        ])
        assert center(g) == expected


def test_g_m_requires_m_at_least_4():
    with pytest.raises(InvalidFamilyError):
        make_g_m(3)


def test_cut_family_drops_exactly_the_scheduled_links():
    g44 = make_g_m_q(4, (4,))
    assert entry_set(g44) == {
        (0, 1, 2, 1), (0, 3, 4, 1), (0, 5, 6, 1), (0, 6, 7, 1),
        (1, 6, 8, 1), (2, 5, 8, -1), (3, 4, 8, 1),
    }


def test_self_paired_cut_drops_one_link():
    g4 = make_g_m(4)
    g45 = make_g_m_q(4, (5,))
    assert deleted_chain_targets(4, (5,)) == {5}
    assert entry_set(g4) - entry_set(g45) == {(0, 3, 4, 1)}


def test_q_validation_messages():
    with pytest.raises(InvalidFamilyError, match="3 ≤ q ≤ m\\+1"):
        make_g_m_q(4, (2,))
    with pytest.raises(InvalidFamilyError, match="3 ≤ q ≤ m\\+1"):
        make_g_m_q(4, (6,))
    with pytest.raises(InvalidFamilyError, match="strictly increasing"):
        make_g_m_q(4, (4, 4))
    with pytest.raises(InvalidFamilyError, match="strictly increasing"):
        make_g_m_q(4, (5, 3))
    # The empty cut list is gm (see below), but the family gmq names a cut
    # member, so its recipe still needs a cut.
    with pytest.raises(InvalidFamilyError, match="at least one"):
        FamilySpec("gmq", m=4)


@pytest.mark.parametrize("m", range(4, 9))
def test_empty_cut_list_is_the_uncut_algebra(m):
    assert make_g_m_q(m, ()) == make_g_m(m)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_families_satisfy_jacobi(m):
    assert check_jacobi(make_g_m(m)).ok
    for q in all_q_lists(m, 2):
        assert check_jacobi(make_g_m_q(m, q)).ok


@pytest.mark.parametrize("m", [4, 5, 6])
def test_derived_dimension_follows_the_cut_count(m):
    for q in all_q_lists(m, 2):
        algebra = make_g_m_q(m, q)
        k = len(q)
        expected = 2 * m - 2 * k if m + 1 in q else 2 * m - 1 - 2 * k
        assert derived_subalgebra(algebra).dim == expected
        assert betti1(algebra) == (2 * m + 1) - expected


def test_cut_family_nilindex_never_exceeds_the_chain():
    for m in (4, 5):
        for q in all_q_lists(m, 2):
            assert lower_central_series(make_g_m_q(m, q)).nilindex <= 2 * m - 1


def test_filiform_smallest_is_heisenberg():
    assert entry_set(make_model_filiform(3)) == {(0, 1, 2, 1)}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_filiform_nilindex_is_maximal(n):
    assert lower_central_series(make_model_filiform(n)).nilindex == n - 1


def test_filiform_requires_n_at_least_3():
    with pytest.raises(InvalidFamilyError):
        make_model_filiform(2)


def test_heisenberg_plus_abelian_shape():
    for m in (2, 4, 5):
        algebra = make_heisenberg_plus_abelian(m)
        n = 2 * m + 1
        assert algebra.dim == n
        assert derived_subalgebra(algebra).dim == 1
        expected_center = Subspace(n, [
            [1 if c == i else 0 for c in range(n)] for i in (0, n - 2, n - 1)
        ])
        assert center(algebra) == expected_center
        assert has_abelian_direct_factor(algebra)


def test_heisenberg_requires_m_at_least_2():
    with pytest.raises(InvalidFamilyError):
        make_heisenberg_plus_abelian(1)


def test_abelian_has_no_brackets():
    assert entry_set(make_abelian(4)) == set()
    assert lower_central_series(make_abelian(4)).dims == (4, 0)


def test_family_spec_builds_each_family():
    cases = [
        (FamilySpec(family="gm", m=4), make_g_m(4)),
        (FamilySpec(family="gmq", m=4, q_list=(3, 5)), make_g_m_q(4, (3, 5))),
        (FamilySpec(family="filiform", n=6), make_model_filiform(6)),
        (FamilySpec(family="heisenberg", m=4), make_heisenberg_plus_abelian(4)),
        (FamilySpec(family="abelian", n=3), make_abelian(3)),
    ]
    for spec, expected in cases:
        assert spec.build() == expected


def test_family_spec_labels_and_metadata():
    spec = FamilySpec(family="gmq", m=4, q_list=(3, 5))
    assert spec.label() == "g4(3,5)"
    assert spec.metadata() == {"family": "gmq", "m": 4, "q": [3, 5]}
    assert FamilySpec(family="gm", m=5).label() == "g5"
    assert FamilySpec(family="heisenberg", m=4).label() == "h3+C2"


def test_family_spec_validation():
    with pytest.raises(InvalidFamilyError):
        FamilySpec(family="nope", m=4)
    with pytest.raises(InvalidFamilyError):
        FamilySpec(family="gm")
    # Ranges are checked once, by the constructor that build() calls.
    with pytest.raises(InvalidFamilyError, match="^gm requires m >= 4$"):
        FamilySpec(family="gm", m=3).build()
    with pytest.raises(InvalidFamilyError, match="^q must satisfy 3 ≤ q ≤ m\\+1$"):
        FamilySpec(family="gmq", m=4, q_list=(2,)).build()
    with pytest.raises(InvalidFamilyError, match="^heisenberg family requires m >= 2$"):
        FamilySpec(family="heisenberg", m=1).build()
    with pytest.raises(InvalidFamilyError):
        FamilySpec(family="filiform")
    with pytest.raises(InvalidFamilyError):
        FamilySpec(family="abelian", n=3, q_list=(3,))
    with pytest.raises(InvalidFamilyError, match="takes no n"):
        FamilySpec(family="gm", m=4, n=7)
    with pytest.raises(InvalidFamilyError, match="takes no m"):
        FamilySpec(family="filiform", m=5, n=3)


def test_all_q_lists_counts():
    assert len(all_q_lists(4, 3)) == 7
    assert len(all_q_lists(6, 3)) == 25
    assert len(all_q_lists(7, 3)) == 41
    assert all_q_lists(4, 1) == [(3,), (4,), (5,)]
