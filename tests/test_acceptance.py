"""Acceptance gate for the toolkit.

Each test certifies one headline claim end to end, over the full parameter
grids the library is advertised for, with exact arithmetic throughout (the
only tolerances are zero).  Run with `pytest -v tests/test_acceptance.py` to
get one pass/fail line per criterion.
"""

import json

from liecontract import (
    all_q_lists,
    betti1,
    build_r_m,
    center,
    centralizer,
    characteristic_sequence,
    check_jacobi,
    check_redundancy,
    derivations,
    derived_subalgebra,
    diagonal_rank,
    from_json_dict,
    has_abelian_direct_factor,
    is_complete,
    is_solvable,
    limit_law,
    lower_central_series,
    make_abelian,
    make_g_m,
    make_g_m_q,
    make_heisenberg_plus_abelian,
    make_model_filiform,
    necessary_conditions,
    scale_law,
    heisenberg_exponents,
    solve_exponents,
    to_json_dict,
)
from liecontract.cli import run
from oracles import _unit_brackets, derivation_nullity_bruteforce, derived_series_by_brackets


def cut_grid(ms, max_k):
    for m in ms:
        for q in all_q_lists(m, max_k):
            yield m, q


def small_instances():
    """Every family member this suite generates with dimension at most 12."""
    out = []
    for m in (4, 5):
        out.append((f"g{m}", make_g_m(m)))
        for q in all_q_lists(m, 3):
            out.append((f"g{m}{q}", make_g_m_q(m, q)))
    out.append(("h3+C2", make_heisenberg_plus_abelian(4)))
    out.append(("h4+C2", make_heisenberg_plus_abelian(5)))
    for n in range(3, 9):
        out.append((f"L{n}", make_model_filiform(n)))
    out.append(("C5", make_abelian(5)))
    out.append(("r4", build_r_m(4)))
    for q in ((3,), (4,), (5,)):
        out.append((f"r4{q}", build_r_m(4, q)))
    return out


def test_criterion_01_every_family_member_satisfies_jacobi():
    """gm and every gmq cut with k <= 3 pass the full Jacobi sweep, m = 4..8."""
    for m in range(4, 9):
        assert check_jacobi(make_g_m(m)).ok
        for q in all_q_lists(m, 3):
            assert check_jacobi(make_g_m_q(m, q)).ok


def test_criterion_02_every_contraction_limit_is_the_cut_family():
    """The diagonal scaling limit lands exactly on gmq, m = 4..7, k <= 3."""
    for m, q in cut_grid(range(4, 8), 3):
        source = make_g_m(m)
        limit = limit_law(scale_law(source, solve_exponents(m, q, 1, 1)))
        assert limit == make_g_m_q(m, q)


def test_criterion_03_pairing_balance_needs_no_extra_equations():
    """The pairing-balance identities hold for every parameter choice at once."""
    for m, q in cut_grid(range(4, 8), 3):
        assert check_redundancy(m, q)


def test_criterion_04_heisenberg_degeneration():
    """Full chain deletion degenerates gm onto Heisenberg plus a 2-dim factor."""
    for m in (4, 5, 6):
        limit = limit_law(scale_law(make_g_m(m), heisenberg_exponents(m)))
        assert limit == make_heisenberg_plus_abelian(m)
        assert derived_subalgebra(limit).dim == 1
        assert center(limit).dim == 3


def test_criterion_05_uncut_chain_invariant_panel():
    """gm has characteristic sequence (2m-1,1,1), nilindex 2m-1, b1 = Z = rank = 2."""
    for m in range(4, 8):
        g = make_g_m(m)
        assert characteristic_sequence(g).blocks == (2 * m - 1, 1, 1)
        assert lower_central_series(g).nilindex == 2 * m - 1
        assert betti1(g) == 2
        assert center(g).dim == 2
        assert diagonal_rank(g) == 2


def test_criterion_06_centralizer_dichotomy_along_the_series():
    """With C1 = g, the term C^m is self-centralizing and C^(m-1) is not."""
    for m in range(4, 8):
        g = make_g_m(m)
        report = lower_central_series(g)
        cm = report.terms[m - 1]
        assert cm.is_subset(centralizer(g, cm))
        prev = report.terms[m - 2]
        assert not prev.is_subset(centralizer(g, prev))


def test_criterion_07_rank_window_and_maximality():
    """Cut families satisfy 2 < rank <= m+1, with rank = b1 exactly at q = (m+1,)."""
    for m, q in cut_grid(range(4, 8), 3):
        algebra = make_g_m_q(m, q)
        rank = diagonal_rank(algebra)
        assert 2 < rank <= m + 1
        maximal = len(q) == 1 and q[0] == m + 1
        assert (rank == betti1(algebra)) == maximal
    g45 = make_g_m_q(4, (5,))
    assert diagonal_rank(g45) == betti1(g45) == 3


def test_criterion_08_solvable_extensions_are_complete():
    """build_r_m gives centerless algebras with dim Der = dim, solvable throughout."""
    grid = [(4, q) for q in [()] + all_q_lists(4, 2)]
    grid += [(5, q) for q in [()] + all_q_lists(5, 2)]
    grid += [(6, q) for q in [()] + all_q_lists(6, 1)]
    for m, q in grid:
        extension = build_r_m(m, q)
        certificate = is_complete(extension)
        assert certificate.center_dim == 0
        assert certificate.der_dim == extension.dim
        assert certificate.is_complete
        assert is_solvable(extension)
        assert derived_series_by_brackets(_unit_brackets(extension))[-1] == ()


def test_criterion_09_monotone_invariants_across_all_contractions():
    """Every produced source/limit pair passes the four necessary conditions."""
    pairs = []
    for m, q in cut_grid(range(4, 8), 3):
        pairs.append((make_g_m(m), make_g_m_q(m, q)))
    for m in (4, 5, 6):
        limit = limit_law(scale_law(make_g_m(m), heisenberg_exponents(m)))
        pairs.append((make_g_m(m), limit))
    assert len(pairs) == 90
    for mu, lam in pairs:
        report = necessary_conditions(mu, lam)
        assert report.all_hold(strict_der=(mu != lam))


def test_criterion_10_cut_families_are_nonsplit_and_nonlinear():
    """No gmq splits off an abelian factor or has a linear characteristic sequence."""
    for m, q in cut_grid(range(4, 8), 3):
        algebra = make_g_m_q(m, q)
        assert not has_abelian_direct_factor(algebra)
        assert not characteristic_sequence(algebra).is_linear


def test_criterion_11_independent_derivation_count_agrees():
    """Brute-force nullity matches the derivation solver on every small instance."""
    instances = small_instances()
    assert all(algebra.dim <= 12 for _, algebra in instances)
    for label, algebra in instances:
        assert derivation_nullity_bruteforce(algebra) == derivations(algebra).dim, label


def test_criterion_12_serialization_roundtrip_and_byte_stable_tables(tmp_path):
    """JSON emit/parse is the identity and the table sweep is byte-deterministic."""
    algebras = [algebra for _, algebra in small_instances()]
    algebras += [
        make_g_m(6),
        make_g_m(7),
        make_g_m_q(6, (3, 7)),
        make_g_m_q(7, (3, 5, 8)),
        make_heisenberg_plus_abelian(6),
    ]
    for algebra in algebras:
        assert from_json_dict(json.loads(json.dumps(to_json_dict(algebra)))) == algebra
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert run(["table", "--m", "4..5", "--max-k", "2", "-o", str(first)]) == 0
    assert run(["table", "--m", "4..5", "--max-k", "2", "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
