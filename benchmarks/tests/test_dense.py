"""The seeded dense-basis generator: invertible P, Jacobi-preserving transport."""

from fractions import Fraction
from itertools import combinations

import pytest

from dense import dense_member, tensor_from_json
from liecontract import make_g_m_q, to_json_dict


def _max_bits(tensor) -> int:
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for f in tensor.values() for c in f.values())


def _matmul(A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0)) for j in range(len(B[0]))] for i in range(len(A))]


def _jacobi_residuals(n, tensor):
    """Nonzero [[X_a,X_b],X_c] + cyclic on basis triples, by a plain triple loop."""

    def bracket(x, y):
        out = [Fraction(0)] * n
        for (i, j), fiber in tensor.items():
            coeff = x[i] * y[j] - x[j] * y[i]
            for k, c in fiber.items():
                out[k] += coeff * c
        return out

    units = [[Fraction(int(i == a)) for i in range(n)] for a in range(n)]
    bad = []
    for a, b, c in combinations(range(n), 3):
        total = [Fraction(0)] * n
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            total = [t + v for t, v in zip(total, bracket(bracket(units[x], units[y]), units[z]))]
        if any(total):
            bad.append((a, b, c))
    return bad


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_change_of_basis_is_invertible(seed):
    _, P, P_inv = dense_member(to_json_dict(make_g_m_q(4, (4,))), seed)
    n = len(P)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert _matmul(P, P_inv) == identity
    assert all(-2 <= v <= 2 and v.denominator == 1 for row in P for v in row)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_transported_tensor_satisfies_jacobi(seed):
    payload, _, _ = dense_member(to_json_dict(make_g_m_q(4, (4,))), seed)
    n, tensor = tensor_from_json(payload)
    assert n == 9
    assert _jacobi_residuals(n, tensor) == []


def test_generator_is_seeded_and_dense():
    adapted = to_json_dict(make_g_m_q(4, (4,)))
    first, _, _ = dense_member(adapted, 3)
    assert dense_member(adapted, 3)[0] == first
    assert dense_member(adapted, 4)[0] != first
    _, tensor = tensor_from_json(first)
    _, sparse = tensor_from_json(adapted)
    assert sum(map(len, tensor.values())) > 4 * sum(map(len, sparse.values()))
    assert _max_bits(tensor) > _max_bits(sparse)
