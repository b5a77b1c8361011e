import json
from dataclasses import fields
from fractions import Fraction
from math import gcd

import pytest

from liecontract import algebra, cli
from liecontract.algebra import (
    LieAlgebra,
    _derivation_rows,
    _generators,
    _torus_weights,
    betti1,
    center,
    check_jacobi,
    derivations,
    derived_subalgebra,
    from_brackets,
    from_json_dict,
    is_derivation,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    to_json_dict,
)
from liecontract.completeness import (
    CompletenessCertificate,
    build_r_m,
    diagonal_rank,
    is_complete,
    max_torus,
    semidirect_product,
    weight_system,
    weight_table,
)
from liecontract.exactlin import Matrix, Subspace, nullspace_of_rows
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
    derivation_by_brackets,
    derivation_nullity_bruteforce,
    in_basis,
    integer_rows,
    kernel_by_gauss_jordan,
    rref_gauss_jordan,
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


def torus_weights(L):
    """The weight of each basis vector under the torus of `max_torus`, one tuple per index."""
    torus = max_torus(L).basis
    return [tuple(w[i] for w in torus) for i in range(L.dim)]


def partial_tori(torus):
    """The tori spanned by the first generator of `torus` and by all its generators but the last."""
    return [Subspace(torus.ambient_dim, part) for part in (torus.basis[:1], torus.basis[:-1])]


def test_torus_weights_are_pairwise_distinct_on_the_families():
    # So every weight space of T = max_torus is a line QX_r.  A torus that
    # holds T commutes with it, keeps each QX_r, so is diagonal and lies in T:
    # T is maximal, and diagonal_rank is the rank of every maximal torus.
    checked = 0
    for m in range(4, 11):
        for q in [()] + all_q_lists(m, 2):
            L = make_g_m_q(m, q) if q else make_g_m(m)
            assert len(set(torus_weights(L))) == L.dim, (m, q)
            checked += 1
    assert checked == 168


def test_a_repeated_weight_makes_the_diagonal_rank_a_lower_bound():
    L = from_brackets(4, {(0, 1): {3: 1}, (0, 2): {3: 1}})
    weights = torus_weights(L)
    assert weights[1] == weights[2]
    assert diagonal_rank(L) == 2
    # In the basis (X1, X2 - X3, X3, X4) the same law is h3 + C: [Y1, Y3] = Y4.
    P = [[1, 0, 0, 0], [0, 1, -1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    split = from_json_dict(in_basis(to_json_dict(L), P))
    assert split == from_brackets(4, {(0, 2): {3: 1}})
    assert diagonal_rank(split) == 3


def test_max_torus_of_abelian_is_everything():
    torus = max_torus(make_abelian(3))
    assert torus == Subspace.full(3)
    assert torus.basis == (
        tuple(unit(3, 0)),
        tuple(unit(3, 1)),
        tuple(unit(3, 2)),
    )


def test_max_torus_generators_are_derivations():
    for g in GRID:
        assert max_torus(g) is weight_system(g)
        for w in max_torus(g).basis:
            diag = Matrix([[w[r] if r == c else 0 for c in range(g.dim)] for r in range(g.dim)])
            assert is_derivation(g, diag)


def test_torus_extension_satisfies_jacobi():
    comparison = [make_model_filiform(6), make_heisenberg_plus_abelian(4), make_abelian(3)]
    for g in GRID + comparison:
        assert check_jacobi(semidirect_product(g, max_torus(g))).ok


def test_semidirect_with_empty_torus_is_identity():
    g4 = make_g_m(4)
    assert semidirect_product(g4, Subspace(9)) == g4


def test_semidirect_rejects_non_derivations():
    heis = make_model_filiform(3)
    with pytest.raises(ValueError, match="not a derivation"):
        semidirect_product(heis, Subspace(3, [[1, 0, 0]]))
    with pytest.raises(ValueError, match="length"):
        semidirect_product(heis, Subspace(2, [[1, 0]]))
    # Every generator is checked, not only the first: the torus below has the
    # derivation diag(1, 0, 1) as its first canonical row and diag(0, 1, 0),
    # which is none, as its second.
    assert semidirect_product(heis, Subspace(3, [[1, 0, 1]])).dim == 4
    bad_second = Subspace(3, [[1, 0, 1], [0, 1, 0]])
    assert bad_second.basis == ((1, 0, 1), (0, 1, 0))
    with pytest.raises(ValueError, match="not a derivation"):
        semidirect_product(heis, bad_second)


def test_integer_torus_builds_the_same_extension_as_its_fraction_form():
    g = make_g_m_q(5, (3,))
    torus = max_torus(g)
    integral = tuple(tuple(int(v) for v in w) for w in torus.basis)
    assert integral == torus.basis and any(v < 0 for w in integral for v in w)
    extension = semidirect_product(g, Subspace(g.dim, integral))
    assert extension == semidirect_product(g, torus)
    assert extension.basis_labels == build_r_m(5, (3,)).basis_labels


def law_through_the_constructor(L):
    """L rebuilt by the public constructor from the Fraction constants that `entries()` reads back."""
    tensor = {}
    for (i, j, k, c) in L.entries():
        tensor.setdefault((i, j), {})[k] = c
    return LieAlgebra(L.dim, tensor, L.basis_labels)


def test_an_extension_built_from_the_scaled_tensor_is_the_law_the_constructor_builds():
    # semidirect_product rescales the stored integers of L to the lcm of L's
    # denominator and the leads of the torus rows, with no Fraction round trip.
    extensions = []
    for m in range(4, 8):
        for q in [()] + all_q_lists(m, 2):
            g = make_g_m_q(m, q)
            torus = max_torus(g)
            extensions += [semidirect_product(g, part) for part in [torus] + partial_tori(torus)]
    # A torus row with lead 2 on a law whose constants have denominator 3: the
    # product's denominator is 6, so both the weights and the constants of L
    # are rescaled.
    g = make_g_m_q(4, (4,))
    thirds = LieAlgebra(g.dim, {(i, j): {k: Fraction(c, 3)} for (i, j, k, c) in g.entries()})
    b = max_torus(g).basis
    lead_two = Subspace(g.dim, [[2 * x + y for x, y in zip(b[0], b[1])]])
    (row,) = lead_two._rows
    assert thirds._den == 3 and row[min(row)] == 2
    extensions += [semidirect_product(g, lead_two), semidirect_product(thirds, lead_two)]
    assert extensions[-2]._den == 2
    assert extensions[-1]._den == 6
    for L in extensions:
        rebuilt = law_through_the_constructor(L)
        assert L == rebuilt
        assert L._den == rebuilt._den
        assert L._adj == rebuilt._adj
        assert L.basis_labels == rebuilt.basis_labels


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
    torus_dim, multiplicities = weight_table(build_r_m(4))
    assert sum(mult for (_, mult) in multiplicities) == 11
    assert torus_dim == 2
    mults = sorted(mult for (_, mult) in multiplicities)
    assert mults == [1] * 9 + [2]
    zero_weight = (Fraction(0), Fraction(0))
    assert dict(multiplicities)[zero_weight] == 2


def test_certificate_serialization(capsys):
    # The certificate carries the verdict; verify-complete adds the weight
    # table of the extension to the JSON it prints.
    assert [f.name for f in fields(CompletenessCertificate)] == ["center_dim", "der_dim", "algebra_dim"]
    assert cli.run(["verify-complete", "--m", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["algebra_dim", "center_dim", "der_dim", "torus_dim", "complete", "weight_multiplicities"]
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
    assert [
        (tuple(map(Fraction, entry["weight"])), entry["dim"]) for entry in doc["weight_multiplicities"]
    ] == list(weight_table(build_r_m(4))[1])


def test_certifying_an_extension_solves_no_weight_system_of_it():
    for m, q in [(4, ()), (5, (3,)), (6, (4, 6))]:
        rm = build_r_m(m, q)
        assert is_complete(rm).is_complete
        assert weight_system.__wrapped__ not in rm._memo


# Der(L) is solved as ad(L) + Der(L)_0 over the diagonal torus of L.  A torus
# extension holds such a torus; extending by part of the max torus leaves
# some weights degenerate, so the block and the ad(X_i) rows both matter.
def _sheared(L, c):
    """L in the basis X_1 + X_c, X_2, ..., X_n, where ad of the first element has
    diagonal and off-diagonal entries when X_1 is diagonal and ad(X_c) is not."""
    n = L.dim
    basis = [[Fraction(int(k == i or (i == 0 and k == c))) for k in range(n)] for i in range(n)]
    tensor = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = list(L.bracket(basis[i], basis[j]))
            v[c] -= v[0]
            tensor[(i, j)] = {k: x for k, x in enumerate(v) if x}
    return LieAlgebra(n, tensor)


@pytest.mark.parametrize("q", [()] + all_q_lists(4, 2), ids=lambda q: f"g4{q}")
def test_derivations_of_torus_extensions_match_bruteforce(q):
    g = make_g_m_q(4, q) if q else make_g_m(4)
    torus = max_torus(g)
    # The full torus, its first generator and all generators but the last,
    # and the full extension in a basis where H1 is replaced by H1 + X1.
    full = semidirect_product(g, torus)
    extensions = [semidirect_product(g, part) for part in [torus] + partial_tori(torus)]
    for L in extensions + [_sheared(full, torus.dim)]:
        n = L.dim
        der = derivations(L)
        assert der.dim == derivation_nullity_bruteforce(L)
        basis = [Matrix([vec[r * n : (r + 1) * n] for r in range(n)]) for vec in der.basis]
        assert derivation_by_brackets(L, *basis)


def derivations_by_one_span(L):
    """Der(L) by textbook Gauss-Jordan: the block kernel, written back at r*n+c, reduced with the inner ad(X_i).

    The block kernel is read off `kernel_by_gauss_jordan` of `_derivation_rows`,
    which come in the block's own coordinates: the unknowns r*n+c with
    w_r = w_c, in increasing order.
    """
    n = L.dim
    weights = _torus_weights(L)
    block = [r * n + c for r in range(n) for c in range(n) if weights[r] == weights[c]]
    kernel = kernel_by_gauss_jordan(_derivation_rows(L), len(block))
    spanning = [{block[k]: v for k, v in row.items()} for row in kernel.values()]
    inner = [{s * n + r: -c for (r, s, c) in L._adj[i]} for i in range(n) if any(weights[i])]
    return rref_gauss_jordan(spanning + inner, n * n)


def rref_rows(space):
    """The canonical rows of a Subspace divided by their leads, after checking each is primitive with a positive lead."""
    out = {}
    for row in space._rows:
        lead = min(row)
        assert row[lead] > 0 and gcd(*row.values()) == 1
        out[lead] = {c: Fraction(v, row[lead]) for c, v in row.items()}
    return out


def test_merged_derivation_basis_is_the_canonical_span():
    # derivations() merges the canonical block kernel and inner rows by lead
    # instead of eliminating their union: on every rm(q..) with m = 4..7 and
    # at most two cuts, on the partial-torus extensions and on a sheared
    # basis, the rows are those of the union's elimination.
    algebras = [build_r_m(m, q) for m in range(4, 8) for q in [()] + all_q_lists(m, 2)]
    for q in [()] + all_q_lists(4, 2):
        g = make_g_m_q(4, q) if q else make_g_m(4)
        torus = max_torus(g)
        algebras += [semidirect_product(g, part) for part in partial_tori(torus)]
        algebras.append(_sheared(semidirect_product(g, torus), torus.dim))
    for L in algebras:
        assert rref_rows(derivations(L)) == derivations_by_one_span(L)


@pytest.mark.parametrize("m", range(4, 8))
def test_derivations_of_each_extension_are_the_kernel_of_the_bruteforce_rows(m):
    # `_derivation_rows` reads each fiber and each triple of `_adj` once; on
    # rm(q..) `_adj[h_a]` holds every index of g, and each of its triples
    # enters only the equations of its weight class.
    for q in [()] + all_q_lists(m, 2):
        L = build_r_m(m, q)
        n = L.dim
        assert derivations(L) == nullspace_of_rows(integer_rows(_bruteforce_derivation_rows(L)), n * n)
        assert derivations(L).dim == derivation_nullity_bruteforce(L)


def test_derivations_of_partial_and_sheared_extensions_are_the_kernel_of_the_bruteforce_rows():
    # dim Der against derivation_nullity_bruteforce on these algebras is
    # checked by test_derivations_of_torus_extensions_match_bruteforce.
    for q in [()] + all_q_lists(4, 2):
        g = make_g_m_q(4, q) if q else make_g_m(4)
        torus = max_torus(g)
        algebras = [semidirect_product(g, part) for part in partial_tori(torus)]
        algebras.append(_sheared(semidirect_product(g, torus), torus.dim))
        for L in algebras:
            n = L.dim
            assert derivations(L) == nullspace_of_rows(integer_rows(_bruteforce_derivation_rows(L)), n * n)


def test_centerless_extension_with_outer_derivations():
    g = make_g_m_q(4, (4,))
    L = semidirect_product(g, partial_tori(max_torus(g))[0])
    cert = is_complete(L)
    assert (cert.algebra_dim, cert.center_dim, cert.der_dim) == (10, 0, 14)
    assert not cert.is_complete
    assert derivation_nullity_bruteforce(L) == 14


@pytest.mark.parametrize("m, q", [(4, ()), (5, (3,)), (6, (4, 6)), (8, (3, 5))])
def test_certifying_an_extension_builds_neither_its_derived_algebra_nor_its_series(m, q, monkeypatch):
    # The torus of rm(q..) has a nonzero weight, so its generating set is every
    # index with no elimination, and center and derivations ask for nothing more.
    rm = build_r_m(m, q)
    assert is_complete(rm).is_complete
    assert _generators(rm) == tuple(range(rm.dim))
    assert derived_subalgebra.__wrapped__ not in rm._memo
    assert lower_central_series.__wrapped__ not in rm._memo
    if not q:
        return
    # `check` reads "solvable" and "not nilpotent" off the construction too:
    # it builds no derived series and no lower central series of the extension.
    extensions = []
    bracket_calls = []
    product = cli.semidirect_product
    bracket_subspaces = algebra.bracket_subspaces
    monkeypatch.setattr(cli, "semidirect_product", lambda *a: extensions.append(product(*a)) or extensions[-1])
    monkeypatch.setattr(algebra, "bracket_subspaces", lambda *a: bracket_calls.append(a) or bracket_subspaces(*a))
    assert cli.run(["check", "--m", str(m), "--q", ",".join(map(str, q))]) == 0
    assert len(extensions) == 1 and extensions[0] == rm
    assert bracket_calls == []
    assert derived_subalgebra.__wrapped__ not in extensions[0]._memo
    assert lower_central_series.__wrapped__ not in extensions[0]._memo
    assert weight_system.__wrapped__ not in extensions[0]._memo
