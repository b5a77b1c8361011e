from fractions import Fraction

import pytest

from liecontract.algebra import (
    betti1,
    center,
    check_jacobi,
    derivations,
    is_derivation,
    is_nilpotent,
    is_solvable,
)
from liecontract.completeness import (
    build_r_m,
    diagonal_rank,
    is_complete,
    max_torus,
    semidirect_product,
    weight_system,
)
from liecontract.exactlin import Matrix
from liecontract.families import (
    all_q_lists,
    make_abelian,
    make_g_m,
    make_g_m_q,
    make_heisenberg_plus_abelian,
    make_model_filiform,
)


def unit(n, i):
    return [Fraction(1) if c == i else Fraction(0) for c in range(n)]


# gm and gm(q..) for m = 4..6 with at most two cuts: the `table --m 4..6` grid.
GRID = [
    make_g_m_q(m, q) if q else make_g_m(m)
    for m in (4, 5, 6)
    for q in [()] + all_q_lists(m, 2)
]


def test_weight_system_of_abelian_is_unconstrained():
    assert weight_system(make_abelian(4)).dim == 4


def test_weight_system_of_g4():
    system = weight_system(make_g_m(4))
    assert system.dim == 2
    assert system.basis == (
        tuple(Fraction(v) for v in (1, 0, 1, 2, 3, 4, 5, 6, 5)),
        tuple(Fraction(v) for v in (0, 1, 1, 1, 1, 1, 1, 1, 2)),
    )


def test_weight_system_of_single_cut():
    system = weight_system(make_g_m_q(4, (4,)))
    assert system.dim == 3
    for w in system.basis:
        assert 2 * w[3] == w[1] + w[5]


@pytest.mark.parametrize(
    "algebra",
    [
        make_g_m(4),
        make_g_m_q(4, (4,)),
        make_g_m_q(5, (3, 6)),
        make_heisenberg_plus_abelian(4),
        make_model_filiform(6),
    ],
    ids=["g4", "g4(4)", "g5(3,6)", "h3+C2", "L6"],
)
def test_solutions_satisfy_every_equation(algebra):
    for w in weight_system(algebra).basis:
        for (i, j, k, _) in algebra.entries():
            assert w[i] + w[j] == w[k]


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_uncut_chain_rank_is_two(m):
    assert diagonal_rank(make_g_m(m)) == 2


def test_rank_is_bounded_by_betti1():
    cases = [
        make_g_m(4),
        make_g_m_q(4, (5,)),
        make_heisenberg_plus_abelian(4),
        make_model_filiform(7),
    ]
    for algebra in cases:
        assert diagonal_rank(algebra) <= betti1(algebra)
    g45 = make_g_m_q(4, (5,))
    assert diagonal_rank(g45) == betti1(g45) == 3
    assert diagonal_rank(make_heisenberg_plus_abelian(4)) == 6


def test_max_torus_of_abelian_is_everything():
    assert max_torus(make_abelian(3)) == (
        tuple(unit(3, 0)),
        tuple(unit(3, 1)),
        tuple(unit(3, 2)),
    )


def test_max_torus_generators_are_derivations():
    for g in GRID:
        for w in max_torus(g):
            diag = Matrix([[w[r] if r == c else 0 for c in range(g.dim)] for r in range(g.dim)])
            assert is_derivation(g, diag)


def test_torus_extension_satisfies_jacobi():
    comparison = [make_model_filiform(6), make_heisenberg_plus_abelian(4), make_abelian(3)]
    for g in GRID + comparison:
        assert check_jacobi(semidirect_product(g, max_torus(g))).ok


def test_semidirect_with_empty_torus_is_identity():
    g4 = make_g_m(4)
    assert semidirect_product(g4, ()) == g4


def test_semidirect_rejects_non_derivations():
    heis = make_model_filiform(3)
    with pytest.raises(ValueError, match="not a derivation"):
        semidirect_product(heis, ((Fraction(1), Fraction(0), Fraction(0)),))
    with pytest.raises(ValueError, match="length"):
        semidirect_product(heis, ((Fraction(1), Fraction(0)),))


def test_extension_of_uncut_chain():
    r4 = build_r_m(4)
    assert r4.dim == 11
    assert r4.basis_labels[:2] == ("H1", "H2")
    assert center(r4).dim == 0
    assert is_solvable(r4)
    assert not is_nilpotent(r4)
    cert = is_complete(r4)
    assert cert.is_complete
    assert cert.der_dim == 11
    assert derivations(r4).dim == 11


@pytest.mark.parametrize("q", [(4,), (5,)])
def test_extension_of_single_cuts(q):
    r = build_r_m(4, q)
    assert r.dim == 12
    cert = is_complete(r)
    assert cert.is_complete
    assert cert.der_dim == 12


def test_extension_dimension_tracks_the_rank():
    g = make_g_m_q(5, (3, 6))
    assert build_r_m(5, (3, 6)).dim == 11 + diagonal_rank(g)


def test_incomplete_algebras_are_reported_as_such():
    assert not is_complete(make_abelian(3)).is_complete
    cert = is_complete(make_g_m(4))
    assert not cert.is_complete
    assert cert.center_dim == 2
    assert cert.der_dim == 15


def test_certificate_multiplicities_cover_the_algebra():
    cert = is_complete(build_r_m(4))
    assert sum(mult for (_, mult) in cert.weight_multiplicities) == 11
    assert cert.torus_dim == 2
    mults = sorted(mult for (_, mult) in cert.weight_multiplicities)
    assert mults == [1] * 9 + [2]
    zero_weight = (Fraction(0), Fraction(0))
    assert dict(cert.weight_multiplicities)[zero_weight] == 2


def test_certificate_serialization():
    doc = is_complete(build_r_m(4)).to_json_dict()
    assert doc["complete"] is True
    assert doc["algebra_dim"] == 11
    assert doc["center_dim"] == 0
    assert doc["der_dim"] == 11
    assert doc["torus_dim"] == 2
    assert all(
        isinstance(entry["weight"], list) and isinstance(entry["dim"], int)
        for entry in doc["weight_multiplicities"]
    )
    assert all(
        isinstance(v, str) for entry in doc["weight_multiplicities"] for v in entry["weight"]
    )

