"""Seeded dense-basis inputs for the invariants-dense workload.

A family member is given in its adapted basis, where the structure tensor is
sparse and integral.  `dense_member` takes the columns of an invertible matrix
P with integer entries in [-2, 2] as a new basis and rewrites the tensor in
it.  The result is the same algebra in a basis where almost every structure
constant is a nonzero rational, so every basis-independent invariant is
unchanged while the elimination work and coefficient heights grow.

P = P0 * diag(signs): P0 is one fixed random draw and the seed draws the signs.
A sign change of basis vectors only flips signs in the derivation system, so
elimination meets the same pivots and the same coefficient heights and every
seed costs the same; a fresh P0 per seed changes the cost by tens of percent.

The linear algebra here is a few lines of Gauss-Jordan over `Fraction`, kept
apart from `liecontract.exactlin` so that the input does not depend on the
code under measurement.
"""

from __future__ import annotations

import random
from fractions import Fraction

Tensor = dict[tuple[int, int], dict[int, Fraction]]
BASE_SEED = 0


def inverse(P: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Inverse of a square matrix by Gauss-Jordan elimination, or None if singular."""
    n = len(P)
    rows = [list(row) + [Fraction(int(i == r)) for i in range(n)] for r, row in enumerate(P)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def random_invertible(n: int, rng: random.Random) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """(P, P^-1) for a uniformly drawn invertible P with integer entries in [-2, 2]."""
    while True:
        P = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        P_inv = inverse(P)
        if P_inv is not None:
            return P, P_inv


def tensor_from_json(payload: dict) -> tuple[int, Tensor]:
    """(dim, {(i, j): {k: C^k_ij}}) with 0-based indices from the library's JSON format."""
    tensor: Tensor = {}
    for entry in payload["brackets"]:
        fiber = tensor.setdefault((entry["i"] - 1, entry["j"] - 1), {})
        for k, c in entry["coeffs"].items():
            fiber[int(k) - 1] = Fraction(c)
    return payload["dim"], tensor


def tensor_to_json(n: int, tensor: Tensor) -> dict:
    """The library's JSON format: 1-based indices, coefficients as strings."""
    brackets = [
        {"i": i + 1, "j": j + 1, "coeffs": {str(k + 1): str(c) for k, c in sorted(tensor[(i, j)].items())}}
        for (i, j) in sorted(tensor)
    ]
    return {"dim": n, "basis": [f"Y{a + 1}" for a in range(n)], "brackets": brackets}


def transport(n: int, tensor: Tensor, P, P_inv) -> Tensor:
    """Structure constants in the basis Y_a = sum_i P[i][a] X_i.

    [Y_a, Y_b] = sum_{i<j} (P_ia P_jb - P_ja P_ib) [X_i, X_j], and a vector with
    X-coordinates v has Y-coordinates P^-1 v.
    """
    out: Tensor = {}
    for a in range(n):
        for b in range(a + 1, n):
            x_coords = [Fraction(0)] * n
            for (i, j), fiber in tensor.items():
                weight = P[i][a] * P[j][b] - P[j][a] * P[i][b]
                if weight:
                    for k, c in fiber.items():
                        x_coords[k] += weight * c
            y_coords = {
                c: value
                for c in range(n)
                if (value := sum((P_inv[c][k] * x_coords[k] for k in range(n)), Fraction(0)))
            }
            if y_coords:
                out[(a, b)] = y_coords
    return out


def seeded_basis(n: int, seed: int) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """(P, P^-1) with P = P0 * diag(signs), P0 drawn once and the signs from `seed`."""
    P0, P0_inv = random_invertible(n, random.Random(BASE_SEED))
    rng = random.Random(seed)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    P = [[v * signs[c] for c, v in enumerate(row)] for row in P0]
    P_inv = [[v * signs[r] for v in row] for r, row in enumerate(P0_inv)]
    return P, P_inv


def dense_member(adapted: dict, seed: int) -> tuple[dict, list[list[Fraction]], list[list[Fraction]]]:
    """(transported JSON payload, P, P^-1) for an adapted-basis payload and a seed."""
    n, tensor = tensor_from_json(adapted)
    P, P_inv = seeded_basis(n, seed)
    return tensor_to_json(n, transport(n, tensor, P, P_inv)), P, P_inv

