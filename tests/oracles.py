"""Independent re-implementations used to cross-check the main solvers.

Everything here deliberately avoids the package's elimination core: ranks are
computed by a right-to-left, bottom-up, non-normalizing eliminator, Jordan
types come from the ranks of dense powers of ad(x), derivation systems are
assembled by probing elementary matrices through the dense table of basis
brackets, a matrix is tested as a derivation on every basis pair through
that table, exponent vectors come from plain integer forward substitution,
the Jacobi sum is swept over every basis triple from the Fraction fibers of
the tensor, and a reduced row echelon form comes from textbook Gauss-Jordan
on dense Fraction rows.  The lower central series, the derived algebra and
the center are spanned or solved from the same table and reduced by that
Gauss-Jordan.  Nothing is imported from the package: an algebra is read
only through `L.dim`, `L.entries()` and the public bracket.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations


def rank_reverse_elimination(rows) -> int:
    """Matrix rank, eliminating on the rightmost column with the last row.

    Rows are {column: value} dicts; pivot rows are not normalized and columns
    are cleared right to left, so the arithmetic path shares nothing with the
    canonical left-to-right reduced-echelon routine under test.
    """
    work = [dict(r) for r in rows if r]
    rank = 0
    while work:
        pivot_col = max(max(r) for r in work)
        pivot_idx = max(i for i, r in enumerate(work) if pivot_col in r)
        pivot = work.pop(pivot_idx)
        pivot_val = pivot[pivot_col]
        rank += 1
        remaining = []
        for row in work:
            if pivot_col in row:
                factor = Fraction(row.pop(pivot_col), pivot_val)
                for col, val in pivot.items():
                    if col == pivot_col:
                        continue
                    new = row.get(col, 0) - factor * val
                    if new:
                        row[col] = new
                    else:
                        row.pop(col, None)
            if row:
                remaining.append(row)
        work = remaining
    return rank


def _unit_brackets(L) -> list[list[tuple[Fraction, ...]]]:
    """[X_a, X_b] for every pair of basis indices, as dense tuples.

    Read from the tensor as `L.entries()` gives it, with [X_b, X_a] =
    -[X_a, X_b] applied here, so it shares no code with the bracket readings
    of the package.
    """
    n = L.dim
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k, c) in L.entries():
        table[i][j][k] = c
        table[j][i][k] = -c
    return [[tuple(w) for w in row] for row in table]


def ad_power_ranks(L, x) -> tuple[int, ...]:
    """r_k = rank ad(x)^k for k = 0 up to the first zero, of the nilpotent ad(x).

    ad(x) is assembled column by column from the public bracket, its powers
    by schoolbook products, and each rank by the reverse eliminator above.
    """
    n = L.dim
    units = [[Fraction(int(c == a)) for c in range(n)] for a in range(n)]
    columns = [L.bracket(x, units[c]) for c in range(n)]
    ad = [[columns[c][r] for c in range(n)] for r in range(n)]
    power, ranks = ad, [n]
    while ranks[-1]:
        if len(ranks) > n:
            raise ValueError("ad(x) is not nilpotent")
        ranks.append(rank_reverse_elimination([{c: v for c, v in enumerate(row) if v} for row in power]))
        power = [[sum(row[k] * ad[k][c] for k in range(n) if row[k]) for c in range(n)] for row in power]
    return tuple(ranks)


def jordan_type_by_powers(L, x) -> tuple[int, ...]:
    """Jordan block sizes of the nilpotent ad(x), non-increasing.

    r_(k-1) - r_k blocks have size at least k (ranks from `ad_power_ranks`),
    and the block sizes are the conjugate of that count.
    """
    ranks = ad_power_ranks(L, x)
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    return tuple(sum(1 for a in at_least if a >= j) for j in range(1, max(at_least, default=0) + 1))


def derivation_nullity_bruteforce(L) -> int:
    """dim of the derivation algebra, from first principles.

    The coefficient of the unknown D_rc in the equation for the pair (i, j)
    is obtained by letting the elementary matrix E_rc (X_c -> X_r) play the
    role of D in D[X_i,X_j] - [D X_i, X_j] - [X_i, D X_j]; only the public
    bracket is used.  Nullity = n^2 - rank with the reverse eliminator above.
    """
    n = L.dim
    brackets = _unit_brackets(L)
    rows: list[dict[int, Fraction]] = []
    for i in range(n):
        for j in range(i + 1, n):
            w = brackets[i][j]
            per_s: dict[int, dict[int, Fraction]] = {}
            for r in range(n):
                for c in range(n):
                    column = r * n + c
                    if w[c]:
                        per_s.setdefault(r, {})[column] = (
                            per_s.get(r, {}).get(column, Fraction(0)) + w[c]
                        )
                    if c == i:
                        for s, val in enumerate(brackets[r][j]):
                            if val:
                                entry = per_s.setdefault(s, {})
                                entry[column] = entry.get(column, Fraction(0)) - val
                    if c == j:
                        for s, val in enumerate(brackets[i][r]):
                            if val:
                                entry = per_s.setdefault(s, {})
                                entry[column] = entry.get(column, Fraction(0)) - val
            for s in sorted(per_s):
                row = {col: val for col, val in per_s[s].items() if val}
                if row:
                    rows.append(row)
    return n * n - rank_reverse_elimination(rows)


def derivation_by_brackets(L, *matrices) -> bool:
    """True iff every M satisfies D[X_i,X_j] = [DX_i,X_j] + [X_i,DX_j] on every basis pair.

    Both sides are expanded by bilinearity over the brackets of basis
    vectors, which come from the public bracket once for all the matrices.
    """
    n = L.dim
    brackets = [[{s: v for s, v in enumerate(w) if v} for w in row] for row in _unit_brackets(L)]

    def add(out, vec, scale):
        for s, v in vec.items():
            out[s] = out.get(s, 0) + scale * v

    for M in matrices:
        # cols[c] is D X_c, sparse.
        cols = [{r: M.entries[r][c] for r in range(n) if M.entries[r][c]} for c in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                diff: dict[int, Fraction] = {}
                for k, v in brackets[i][j].items():
                    add(diff, cols[k], v)
                for r, d in cols[i].items():
                    add(diff, brackets[r][j], -d)
                for r, d in cols[j].items():
                    add(diff, brackets[i][r], -d)
                if any(diff.values()):
                    return False
    return True


def forward_exponents(m: int, deleted: set[int], n1: int = 1, n2: int = 1) -> tuple[int, ...]:
    """Chain exponents by naive forward substitution (1-based values)."""
    a = {2: n1, 3: n2}
    a[1] = a[3] - a[2] - (1 if 3 in deleted else 0)
    for j in range(4, 2 * m + 1):
        a[j] = a[1] + a[j - 1] + (1 if j in deleted else 0)
    a[2 * m + 1] = a[2] + a[2 * m - 1]
    return tuple(a[i] for i in range(1, 2 * m + 2))


def jacobi_violations_by_fibers(L) -> tuple[tuple[int, int, int, int, Fraction], ...]:
    """(i, j, l, s, residual) for every nonzero component of the Jacobi sum, in lex order.

    Every triple i < j < l is visited, and each bracket of basis vectors is
    read as a Fraction fiber of the tensor as given by `L.entries()`, with
    [X_b, X_a] = -[X_a, X_b] applied here, not from its integer adjacency
    lists.
    """
    fibers: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j, k, c) in L.entries():
        fibers.setdefault((i, j), {})[k] = c
        fibers.setdefault((j, i), {})[k] = -c
    violations = []
    for (i, j, l) in combinations(range(L.dim), 3):
        residual: dict[int, Fraction] = {}
        for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
            for k, c1 in fibers.get((a, b), {}).items():
                for s, c2 in fibers.get((k, c), {}).items():
                    residual[s] = residual.get(s, Fraction(0)) + c1 * c2
        violations.extend((i, j, l, s, residual[s]) for s in sorted(residual) if residual[s])
    return tuple(violations)


def rref_gauss_jordan(rows, ncols: int) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form as {pivot column: row with 1 there}, by textbook Gauss-Jordan.

    The rows are made dense Fraction lists and reduced column by column: swap
    a row with a nonzero entry up, divide it by that entry, and clear the
    column from every other row.
    """
    work = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        found = next((i for i in range(top, len(work)) if work[i][col]), None)
        if found is None:
            continue
        work[top], work[found] = work[found], work[top]
        lead = work[top][col]
        work[top] = [v / lead for v in work[top]]
        for i, other in enumerate(work):
            factor = other[col]
            if i != top and factor:
                work[i] = [a - factor * b for a, b in zip(other, work[top])]
        pivots.append(col)
    return {col: {c: v for c, v in enumerate(work[i]) if v} for i, col in enumerate(pivots)}


def _rref_basis(vectors, ncols: int) -> tuple[tuple[Fraction, ...], ...]:
    """The reduced row echelon basis of the span of dense vectors, rows in pivot order.

    Each nonzero vector is scaled to a leading 1 and repeats are dropped
    before `rref_gauss_jordan`, which leaves the span as it is.
    """
    distinct = set()
    for v in vectors:
        lead = next((x for x in v if x), 0)
        if lead:
            distinct.add(tuple(x / lead for x in v))
    pivots = rref_gauss_jordan([{c: x for c, x in enumerate(v) if x} for v in sorted(distinct)], ncols)
    return tuple(tuple(pivots[p].get(c, Fraction(0)) for c in range(ncols)) for p in sorted(pivots))


def _bracket_vector(brackets, a: int, v) -> list[Fraction]:
    """[X_a, v] by bilinearity over the brackets of basis vectors."""
    out = [Fraction(0)] * len(v)
    for j, vj in enumerate(v):
        if vj:
            for s, w in enumerate(brackets[a][j]):
                if w:
                    out[s] += vj * w
    return out


def lower_central_series_by_brackets(brackets) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """The terms C^1 = L, C^(k+1) = [L, C^k] as reduced row echelon bases, until 0 or a repeat.

    `brackets` is `_unit_brackets(L)`.  C^(k+1) is spanned by [X_a, v] for
    every basis index a and every basis row v of C^k, each product expanded
    over the brackets of basis vectors, and the span is reduced by textbook
    Gauss-Jordan.
    """
    n = len(brackets)
    term = _rref_basis([[Fraction(int(c == a)) for c in range(n)] for a in range(n)], n)
    terms = [term]
    while term:
        nxt = _rref_basis([_bracket_vector(brackets, a, v) for v in term for a in range(n)], n)
        if nxt == term:
            break
        terms.append(nxt)
        term = nxt
    return tuple(terms)


def derived_algebra_by_brackets(brackets) -> tuple[tuple[Fraction, ...], ...]:
    """[L, L] as a reduced row echelon basis: the span of [X_a, X_b] over every pair a < b.

    `brackets` is `_unit_brackets(L)`.
    """
    n = len(brackets)
    return _rref_basis([brackets[a][b] for a, b in combinations(range(n), 2)], n)


def center_by_brackets(brackets) -> tuple[tuple[Fraction, ...], ...]:
    """Z(L) as a reduced row echelon basis: the kernel of x -> ([x, X_j])_j.

    `brackets` is `_unit_brackets(L)`.  One equation per (j, s): the sum
    over a of x_a [X_a, X_j]_s is 0.  The kernel is read off the
    Gauss-Jordan form (a free column f gives x_f = 1 and x_p = -row_p[f] on
    each pivot row p), then put in echelon form itself.
    """
    n = len(brackets)
    equations = [{a: brackets[a][j][s] for a in range(n) if brackets[a][j][s]} for j in range(n) for s in range(n)]
    pivots = rref_gauss_jordan([row for row in equations if row], n)
    kernel = []
    for f in range(n):
        if f in pivots:
            continue
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for p, row in pivots.items():
            x[p] = -row.get(f, Fraction(0))
        kernel.append(x)
    return _rref_basis(kernel, n)


def inverse_by_gauss_jordan(P):
    """P^-1 over Fraction, apart from the package's elimination core."""
    n = len(P)
    rows = [[Fraction(v) for v in row] + [Fraction(int(c == r)) for c in range(n)] for r, row in enumerate(P)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def in_basis(payload, P):
    """The JSON payload of the same algebra in the basis Y_a = sum_i P[a][i] X_i."""
    n = payload["dim"]
    Q = inverse_by_gauss_jordan(P)  # X_k = sum_c Q[k][c] Y_c
    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            x = [Fraction(0)] * n
            for entry in payload["brackets"]:
                i, j = entry["i"] - 1, entry["j"] - 1
                weight = P[a][i] * P[b][j] - P[a][j] * P[b][i]
                for k, c in entry["coeffs"].items():
                    x[int(k) - 1] += weight * Fraction(c)
            y = {c: sum(x[k] * Q[k][c] for k in range(n)) for c in range(n)}
            coeffs = {str(c + 1): str(v) for c, v in y.items() if v}
            if coeffs:
                brackets.append({"i": a + 1, "j": b + 1, "coeffs": coeffs})
    return {"dim": n, "basis": [f"Y{a + 1}" for a in range(n)], "brackets": brackets}


def random_basis(n: int, seed: int) -> list[list[int]]:
    """A seeded invertible n x n integer matrix with entries in [-2, 2], for `in_basis`."""
    rng = random.Random(seed)
    while True:
        P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if len(rref_gauss_jordan([{c: v for c, v in enumerate(row) if v} for row in P], n)) == n:
            return P
