"""Lie algebras given by structure constants, and their exact invariants.

A LieAlgebra is a structure-constant tensor over a fixed basis: only pairs
(i, j) with i < j are stored, antisymmetry is structural.  All invariants
(center, series, derivations, characteristic sequence) are computed over the
rationals with no rounding anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import accumulate
from math import lcm
from operator import add
from typing import Iterator, Mapping, Sequence

from .exactlin import (
    DimensionError,
    Matrix,
    Subspace,
    _coerce,
    nullspace_of_rows,
    rank as matrix_rank,
)

_ZERO = Fraction(0)


class NotNilpotentError(ValueError):
    """Raised when an invariant defined only for nilpotent algebras is requested."""


class MalformedAlgebraError(ValueError):
    """A JSON algebra document is malformed, or a bracket table is not a Lie law."""


class JacobiViolationError(MalformedAlgebraError):
    """A bracket table that breaks the Jacobi identity; the message names the first failing triple, 1-based."""

    def __init__(self, report: "JacobiReport"):
        self.report = report
        i, j, l, s, residual = report.violations[0]
        super().__init__(
            f"Jacobi identity fails on the basis triple ({i + 1}, {j + 1}, {l + 1}): "
            f"component {s + 1} of the Jacobi sum is {residual}"
        )


def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(f"X{i + 1}" for i in range(dim))


class LieAlgebra:
    """Structure-constant presentation of a finite-dimensional Lie algebra.

    `tensor` maps a pair (i, j) with i < j to {k: C^k_ij}; only nonzero
    coefficients are kept.  The law is stored once, in integers: the
    denominators are cleared here, `_den` is their lcm, and
    `_tensor[(i, j)]` holds {k: C^k_ij * _den} as ints.  `_adj[j]` indexes
    the same integers by the second factor: it lists the triples
    (r, s, c * _den) with [X_r, X_j] = c X_s.  Spans and kernels do not
    change when the bracket is scaled by `_den`, so every system built from
    the brackets stays integral; `entries()` is the one reader that gives
    the Fraction constants C^k_ij back.  Equality compares dimension, `_den`
    and `_tensor` (labels are presentation only).  `_memo` holds the
    invariants computed once per algebra (see `_per_algebra`).
    """

    __slots__ = ("dim", "basis_labels", "_tensor", "_adj", "_den", "_memo")

    def __init__(
        self,
        dim: int,
        tensor: Mapping[tuple[int, int], Mapping[int, object]],
        basis_labels: Sequence[str] | None = None,
    ):
        if dim < 0:
            raise DimensionError("dimension must be nonnegative")
        clean: dict[tuple[int, int], dict[int, Fraction | int]] = {}
        for (i, j), fiber in tensor.items():
            if not (0 <= i < j < dim):
                raise DimensionError(f"bad bracket pair ({i}, {j}) for dimension {dim}")
            entries = {}
            for k, c in fiber.items():
                if not 0 <= k < dim:
                    raise DimensionError(f"bad target index {k} for dimension {dim}")
                val = _coerce(c)
                if val:
                    entries[k] = val
            if entries:
                clean[(i, j)] = entries
        labels = _default_labels(dim) if basis_labels is None else tuple(basis_labels)
        if len(labels) != dim:
            raise DimensionError("label count does not match dimension")
        den = lcm(*(c.denominator for entries in clean.values() for c in entries.values()))
        for entries in clean.values():
            for k, c in entries.items():
                # Each Fraction is replaced in place by the int c * den.
                entries[k] = c.numerator * (den // c.denominator)
        self._build(dim, clean, den, labels)

    @classmethod
    def _from_scaled(
        cls, dim: int, tensor: dict[tuple[int, int], dict[int, int]], den: int, labels: tuple[str, ...]
    ) -> "LieAlgebra":
        """The law whose `_tensor` is `tensor` and whose `_den` is `den`; nothing is checked or copied.

        For a law derived from checked ones: the pairs satisfy 0 <= i < j <
        dim, every target lies in range, every value is a nonzero int and
        `den` is the lcm of the denominators of the constants value / den in
        lowest terms, so the result equals the law that the constructor
        builds from those constants.
        """
        algebra = cls.__new__(cls)
        algebra._build(dim, tensor, den, labels)
        return algebra

    def _build(
        self, dim: int, tensor: dict[tuple[int, int], dict[int, int]], den: int, labels: tuple[str, ...]
    ) -> None:
        """Set every slot from a scaled tensor: `_adj` is read off `tensor`, and the memo starts empty."""
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(dim)]
        for (i, j), entries in tensor.items():
            for k, scaled in entries.items():
                adj[j].append((i, k, scaled))
                adj[i].append((j, k, -scaled))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "_tensor", tensor)
        object.__setattr__(self, "_adj", tuple(tuple(row) for row in adj))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def entries(self) -> Iterator[tuple[int, int, int, Fraction]]:
        """All stored coefficients (i, j, k, C^k_ij) with i < j, in lex order, as Fractions."""
        for (i, j) in sorted(self._tensor):
            fiber = self._tensor[(i, j)]
            for k in sorted(fiber):
                yield i, j, k, Fraction(fiber[k], self._den)

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        """[x, y] = sum_r x_r [X_r, y] in coordinates, read from `_brackets_with(y)`."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionError("vector length does not match algebra dimension")
        xs = [_coerce(v) for v in x]
        ys = {j: v for j, v in enumerate(map(_coerce, y)) if v}
        out = [_ZERO] * self.dim
        for r, col in self._brackets_with(ys).items():
            for s, c in col.items():
                out[s] += xs[r] * c
        return tuple(v / self._den for v in out)

    def _brackets_with(
        self, v: Mapping[int, int | Fraction], adj: Sequence[Sequence[tuple[int, int, int]]] | None = None
    ) -> dict[int, dict[int, int | Fraction]]:
        """The nonzero _den * [X_r, v] as {r: {s: coefficient}}, v sparse as well.

        The products are formed from `adj`, which is `_adj` unless a copy of
        `_adj` filtered to the triples (r, s, c) of some indices r is given:
        then only the products with those X_r are formed.  An integral v
        gives integral results.
        """
        out: dict[int, dict[int, int | Fraction]] = {}
        for j, vj in v.items():
            for (r, s, c) in (self._adj if adj is None else adj)[j]:
                col = out.setdefault(r, {})
                col[s] = col.get(s, 0) + vj * c
        nonzero = {}
        for r, col in out.items():
            row = {s: c for s, c in col.items() if c}
            if row:
                nonzero[r] = row
        return nonzero

    def ad_matrix(self, x: Sequence) -> Matrix:
        """Matrix of ad(x) = [x, .] in the algebra basis."""
        n = self.dim
        if len(x) != n:
            raise DimensionError("vector length does not match algebra dimension")
        xs = {j: _coerce(v) for j, v in enumerate(x) if v}
        rows = [[_ZERO] * n for _ in range(n)]
        # Column r of ad(x) is [x, X_r] = -[X_r, x].
        for r, col in self._brackets_with(xs).items():
            for s, c in col.items():
                rows[s][r] = -c / self._den
        return Matrix(rows, ncols=n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self._den == other._den
            and self._tensor == other._tensor
        )

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, brackets={len(self._tensor)})"


def _per_algebra(compute):
    """Make `compute(L)` run once per algebra; the result is kept in `L._memo`.

    Only for invariants of L alone whose results are immutable (`Subspace`,
    `SeriesReport`, `JacobiReport`, tuples), so every caller can be handed
    the same object.
    """

    @wraps(compute)
    def cached(L: LieAlgebra):
        memo = L._memo
        if compute not in memo:
            memo[compute] = compute(L)
        return memo[compute]

    return cached


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def from_brackets(
    dim: int,
    tensor: Mapping[tuple[int, int], Mapping[int, object]],
    basis_labels: Sequence[str] | None = None,
) -> LieAlgebra:
    """The LieAlgebra of a bracket table {(i, j): {k: C^k_ij}} (0-based, i < j), checked once.

    `LieAlgebra` rejects an index out of range with DimensionError; a table
    that breaks the Jacobi identity raises JacobiViolationError.  The report
    of `check_jacobi` stays in the algebra's memo.
    """
    algebra = LieAlgebra(dim, tensor, basis_labels)
    report = check_jacobi(algebra)
    if not report.ok:
        raise JacobiViolationError(report)
    return algebra


# ---------------------------------------------------------------------------
# Jacobi identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    violations: tuple[tuple[int, int, int, int, Fraction], ...]
    """Violations as (i, j, l, s, residual) on basis triples i < j < l."""


@_per_algebra
def check_jacobi(L: LieAlgebra) -> JacobiReport:
    """Evaluate [[X_i,X_j],X_l] + [[X_j,X_l],X_i] + [[X_l,X_i],X_j] on all triples i < j < l.

    The sums are taken in integers from `L._tensor` and `L._adj`, which
    hold the structure constants times `_den`; every term is a product of
    two of them, so a residual is reported as Fraction(sum, _den**2).  Only
    the triples with a nonzero term are visited: a stored pair a < b with
    [X_a, X_b] holding X_k, and a third index c with [X_k, X_c] != 0.
    """
    n = L.dim
    # by_third[k][c] lists the (s, w) with [X_c, X_k] holding w X_s.
    by_third: list[dict[int, list[tuple[int, int]]]] = []
    for row in L._adj:
        terms: dict[int, list[tuple[int, int]]] = {}
        for (c, s, w) in row:
            terms.setdefault(c, []).append((s, w))
        by_third.append(terms)
    sums: dict[tuple[int, int, int], list[int]] = {}
    for (a, b), fiber in L._tensor.items():
        for k, c1 in fiber.items():
            # [X_a, X_b] holds c1 X_k, so [[X_a, X_b], X_c] holds -c1 w X_s for
            # each (s, w) in by_third[k][c]; (a, b) is the first, second or
            # (reversed, so with the sign flipped) third pair of the sorted triple.
            for c, terms in by_third[k].items():
                if c > b:
                    key, f = (a, b, c), -c1
                elif c < a:
                    key, f = (c, a, b), -c1
                elif c == a or c == b:
                    continue
                else:
                    key, f = (a, c, b), c1
                residual = sums.setdefault(key, [0] * n)
                for s, w in terms:
                    residual[s] += f * w
    scale = L._den**2
    violations = tuple(
        (i, j, l, s, Fraction(v, scale))
        for (i, j, l), residual in sorted(sums.items())
        for s, v in enumerate(residual)
        if v
    )
    return JacobiReport(ok=not violations, violations=violations)


# ---------------------------------------------------------------------------
# Subspace-valued invariants
# ---------------------------------------------------------------------------


def centralizer(L: LieAlgebra, S: Subspace) -> Subspace:
    """{x : [x, v] = 0 for all v in S}."""
    if S.ambient_dim != L.dim:
        raise DimensionError("subspace ambient does not match algebra dimension")
    rows: list[dict[int, int]] = []
    for v in S._rows:
        per_s: dict[int, dict[int, int]] = {}
        for i, w in L._brackets_with(v).items():
            for s, val in w.items():
                per_s.setdefault(s, {})[i] = val
        rows.extend(per_s[s] for s in sorted(per_s))
    return nullspace_of_rows(rows, L.dim)


@_per_algebra
def center(L: LieAlgebra) -> Subspace:
    """Z(L) = {x : [x, X_j] = 0 for every j in G}, one row per (j, s) read from `_adj[j]`.

    G is the generating set of `_generators`, so this is Z(L).  When some
    basis index has a nonzero torus weight (see `_torus_weights`), [X_a, x]
    scales each coordinate x_r by the weight of X_r under X_a, so x in Z(L)
    has x_r = 0 wherever that weight is nonzero: only the coordinates of
    weight zero are solved for.
    """
    n, adj = L.dim, L._adj
    weight_zero = [not any(w) for w in _torus_weights(L)]
    # [h, x] = 0 for the torus elements h forces every coordinate of nonzero weight to zero.
    rows: list[dict[int, int]] = [{r: 1} for r in range(n) if not weight_zero[r]]
    for j in _generators(L):
        # (r, s, c) in adj[j]: [X_r, X_j] = c X_s, so row (j, s) holds c at x_r.
        per_s: dict[int, dict[int, int]] = {}
        for (r, s, c) in adj[j]:
            if weight_zero[r]:
                per_s.setdefault(s, {})[r] = c
        rows.extend(per_s.values())
    return nullspace_of_rows(rows, n)


def bracket_subspaces(L: LieAlgebra, A: Subspace, B: Subspace) -> Subspace:
    """span{[a, b] : a in A, b in B}.

    When A = B, [a, a] = 0 and [a', a] = -[a, a'], so each unordered pair of
    canonical rows is formed once.
    """
    if A.ambient_dim != L.dim or B.ambient_dim != L.dim:
        raise DimensionError("subspace ambient does not match algebra dimension")
    same = A == B
    products: list[dict[int, int]] = []
    for q, b in enumerate(B._rows):
        cols = L._brackets_with(b)
        for a in A._rows[:q] if same else A._rows:
            # [a, b] = sum_r a_r [X_r, b], up to the factor _den
            out: dict[int, int] = {}
            for r, ar in a.items():
                for s, c in cols.get(r, {}).items():
                    out[s] = out.get(s, 0) + ar * c
            products.append(out)
    return Subspace._from_rows(products, L.dim)


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesReport:
    """Descending series with terms[0] = the whole algebra.

    `nilindex` is the index of the first zero term, or None when the series
    stabilizes at a nonzero subspace.
    """

    terms: tuple[Subspace, ...]
    dims: tuple[int, ...]
    nilindex: int | None


def _descending_series(L: LieAlgebra, step) -> SeriesReport:
    """Iterate `step` from the whole algebra until a zero or a repeated term.

    Each new term is a proper subspace of the last, so a series has at most
    dim + 1 terms; a longer one means `step` or subspace equality is broken,
    and raises RuntimeError instead of looping.
    """
    term = Subspace.full(L.dim)
    terms = [term]
    while not term.is_zero():
        nxt = step(term)
        if nxt == term:
            break
        if len(terms) > L.dim:
            raise RuntimeError(f"descending series has more than dim + 1 = {L.dim + 1} terms")
        terms.append(nxt)
        term = nxt
    dims = tuple(t.dim for t in terms)
    nilindex = len(terms) - 1 if terms[-1].is_zero() else None
    return SeriesReport(terms=tuple(terms), dims=dims, nilindex=nilindex)


def _series_from(L: LieAlgebra, indices: Sequence[int]) -> SeriesReport:
    """K^1 = L, K^(k+1) = [span{X_r : r in `indices`}, K^k].

    Each product is formed by `_brackets_with` from `_adj` filtered to the
    triples (r, s, c) with r in `indices`.
    """
    kept = set(indices)
    adj = tuple(tuple(t for t in row if t[0] in kept) for row in L._adj)
    return _descending_series(
        L, lambda term: Subspace._from_rows([p for v in term._rows for p in L._brackets_with(v, adj).values()], L.dim)
    )


@_per_algebra
def _generators_and_series(L: LieAlgebra) -> tuple[tuple[int, ...], SeriesReport | None]:
    """(G, K): the generating set of `_generators`, and its series K when G is S, else None."""
    every = tuple(range(L.dim))
    if any(map(any, _torus_weights(L))):
        return every, None
    derived = derived_subalgebra(L)
    leads = {min(row) for row in derived._rows}
    generators = tuple(c for c in every if c not in leads)
    series = _series_from(L, generators)
    # dims is (0,) when n = 0, and that series reaches 0 as well.
    if series.nilindex is not None and (*series.dims, 0)[1] == derived.dim:
        return generators, series
    return every, None


def _generators(L: LieAlgebra) -> tuple[int, ...]:
    """A set G of basis indices whose unit vectors generate L: S on a nilpotent L, else every index.

    When some basis index has a nonzero weight in `_torus_weights`, ad(X_a)
    is diagonal and nonzero, so not nilpotent, while every ad(x) of a
    nilpotent L is (ad(x)^k maps L into C^(k+1); Engel's theorem is the
    converse).  So L is not nilpotent, G is every index, and no [L, L] is
    built.  Otherwise
    let S be the basis indices that are not leads of [L, L], so that
    L = span{X_s : s in S} + [L, L], and put K^1 = L, K^(k+1) = [S, K^k].
    G is S exactly when K reaches 0 and dim K^2 = dim [L, L], else every
    index.  The proof: K^2 lies in [L, L], so the dimensions give
    K^2 = [L, L].  Let T_k be the span of the right-nested brackets of k
    elements of S.  Then K^1 = T_1 + K^2, and K^k in T_k + K^(k+1) gives
    K^(k+1) = [S, K^k] in [S, T_k] + [S, K^(k+1)] = T_(k+1) + K^(k+2).  So
    a zero K^(N+1) puts L in T_1 + ... + T_N, inside the subalgebra that S
    generates: S generates L, K is the lower central series by the first
    fact below, and L is nilpotent.  Conversely a complement of [L, L]
    generates every nilpotent L (Bourbaki, Lie Groups and Lie Algebras,
    ch. I, section 4; Jacobson, Lie Algebras, ch. I), so K is then its lower
    central series, which reaches 0 with K^2 = [L, L]: every nilpotent L
    takes S.

    Three facts about a generating set G let every consumer use G as is.
    - C^k is spanned by the right-nested brackets of at least k elements of
      G, so C^(k+1) = [G, C^k] (Jacobson, Lie Algebras, ch. I; Bourbaki,
      Lie Groups and Lie Algebras, ch. I, section 1): `lower_central_series`.
    - The centralizer of G is the centralizer of the subalgebra G
      generates, so Z(L) = C_L(G): `center`.
    - For a linear D, the x with D[x, y] = [Dx, y] + [x, Dy] for every y
      form a subalgebra (by the Jacobi identity), so D is a derivation once
      that set holds G: `_derivation_rows`.
    """
    return _generators_and_series(L)[0]


@_per_algebra
def lower_central_series(L: LieAlgebra) -> SeriesReport:
    """C^(i+1) = [L, C^(i)], starting from the whole algebra.

    When G of `_generators` is S, the series K that proved it is this
    series and is returned as is.  Otherwise G is every index and each step
    forms C^(k+1) = [L, C^k], the brackets with every X_r of each canonical
    row of C^k.
    """
    generators, series = _generators_and_series(L)
    return _series_from(L, generators) if series is None else series


def is_nilpotent(L: LieAlgebra) -> bool:
    return lower_central_series(L).nilindex is not None


def is_solvable(L: LieAlgebra) -> bool:
    """True iff the derived series D^(i+1) = [D^(i), D^(i)] reaches 0."""
    return _descending_series(L, lambda term: bracket_subspaces(L, term, term)).nilindex is not None


@_per_algebra
def derived_subalgebra(L: LieAlgebra) -> Subspace:
    """[L, L], the span of the [X_i, X_j]: one row per stored pair (i, j), read from the tensor.

    A pair that is not stored has [X_i, X_j] = 0, so the stored fibers span
    [L, L]; they hold the constants times `_den`, so the rows are integral.
    """
    return Subspace._from_rows(L._tensor.values(), L.dim)


def betti1(L: LieAlgebra) -> int:
    """dim L - dim [L, L] (first Betti number / count of generators)."""
    return L.dim - derived_subalgebra(L).dim


def has_abelian_direct_factor(L: LieAlgebra) -> bool:
    """True iff the nilpotent algebra splits off a 1-dimensional abelian ideal.

    For nilpotent L this happens exactly when the center is not contained in
    the derived subalgebra.
    """
    if not is_nilpotent(L):
        raise NotNilpotentError("abelian-factor test is defined here for nilpotent algebras")
    return not center(L).is_subset(derived_subalgebra(L))


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


@_per_algebra
def _torus_weights(L: LieAlgebra) -> tuple[tuple[int, ...], ...]:
    """The weight of each basis index under the diagonal torus t of L, scaled by `L._den`.

    t is spanned by the basis elements X_a with a nonzero ad(X_a) that is
    diagonal in the basis: every [X_a, X_r] is a multiple of X_r, so `_adj[a]`
    holds only triples (r, r, c).  Component k of the weight of X_r is
    `_den * l` where [X_a, X_r] = l X_r, for the k-th such a.  Two of these
    X_a commute, since [X_a, X_b] lies in QX_a and in QX_b.  An L with no such
    X_a (every nilpotent algebra) gives every index the empty weight ().
    Computed once per algebra: `center`, `_generators_and_series`,
    `_derivation_rows` and `derivations` all read it.
    """
    adj = L._adj
    torus = [a for a in range(L.dim) if adj[a] and all(r == s for (r, s, _) in adj[a])]
    weights = [[0] * len(torus) for _ in range(L.dim)]
    for k, a in enumerate(torus):
        for (r, _, c) in adj[a]:
            # [X_r, X_a] = c X_r, so [X_a, X_r] = -c X_r.
            weights[r][k] = -c
    return tuple(map(tuple, weights))


def _derivation_rows(L: LieAlgebra) -> list[dict[int, int]]:
    """Nonzero integer rows of the weight-zero block of D[X_i,X_j] = [DX_i,X_j] + [X_i,DX_j].

    Every unknown in the equation of the pair (i, j) and output component s
    has torus weight w_s - w_i - w_j (see `_torus_weights`), so only the
    equations with w_s = w_i + w_j are built: they involve exactly the
    unknowns D_rc with w_r = w_c, the block.  The rows are written in the
    block's own coordinates: D_rc sits at the position of r*n+c among the
    block's unknowns in increasing order, `offset[r] + place[c]`, where
    offset[r] counts the block unknowns of the rows above r and place[c] is
    the position of c in its weight class.  With no torus the block is all
    n^2 unknowns and D_rc sits at r*n+c.  Only the pairs
    (i, j) with i or j in the generating set G of `_generators` are built:
    the x with D[x, y] = [Dx, y] + [x, Dy] for every y form a subalgebra,
    so the equations on G give the same kernel.  The
    structure constants enter scaled by `L._den`, as `L._tensor` and
    `L._adj` hold them; every equation is linear in them, so the kernel is
    unchanged and all rows are integral.

    Each equation is assembled from the nonzeros that enter it, each read
    once.  A stored fiber [X_i, X_j] = sum_k c X_k puts c D_sk into the
    equation (i, j, s) of each s in the class w_i + w_j.  Moved to the left,
    [DX_a, X_b] = sum_r D_ra [X_r, X_b] for a != b, so a triple (r, s, c) of
    `_adj[b]`, [X_r, X_b] = c X_s, puts -c D_ra into the equation
    (min(a, b), max(a, b), s) of each a != b in the class w_s - w_b: the
    term of [DX_i, X_j] when a < b, and with the sign flipped, since
    [X_i, DX_j] = -[DX_j, X_i], the term of [X_i, DX_j] when a > b.  That
    class is the class of w_r: ad(h) of a torus element is a derivation, so
    w_s = w_r + w_b wherever [X_r, X_b] holds X_s.  Rows
    come in the order their equations are first reached: those of the
    stored pairs in tensor order, then the rest.  The kernel does not depend
    on the order.
    """
    n, adj = L.dim, L._adj
    weights = _torus_weights(L)
    generators = set(_generators(L))
    classes: dict[tuple[int, ...], list[int]] = {}
    for s, w in enumerate(weights):
        classes.setdefault(w, []).append(s)
    # The members of each class that lie in G: the only a whose pair with b is
    # built when b is not in G.
    in_generators = {w: [a for a in members if a in generators] for w, members in classes.items()}
    class_of = [classes[w] for w in weights]
    class_in_generators = [in_generators[w] for w in weights]
    place = [0] * n
    for members in classes.values():
        for k, c in enumerate(members):
            place[c] = k
    offset = list(accumulate(map(len, class_of), initial=0))
    # The equation (i, j, s) with i < j is keyed by the int (i*n + j)*n + s.
    equations: dict[int, dict[int, int]] = {}
    for (i, j), fiber in L._tensor.items():
        if i in generators or j in generators:
            for s in classes.get(tuple(map(add, weights[i], weights[j])), ()):
                base = offset[s]
                equations[(i * n + j) * n + s] = {base + place[k]: c for k, c in fiber.items()}
    for b in range(n):
        partners = class_of if b in generators else class_in_generators
        for (r, s, c) in adj[b]:
            for a in partners[r]:
                if a < b:
                    key, term = (a * n + b) * n + s, -c
                elif a > b:
                    key, term = (b * n + a) * n + s, c
                else:
                    continue
                row = equations.get(key)
                if row is None:
                    row = equations[key] = {}
                col = offset[r] + place[a]
                new = row.get(col, 0) + term
                if new:
                    row[col] = new
                else:
                    del row[col]
    return [row for row in equations.values() if row]


def derivations(L: LieAlgebra) -> Subspace:
    """Derivation algebra as a subspace of n x n matrices flattened row-major.

    Solved as Der(L) = ad(L) + Der(L)_0, an exact identity.  Let t be the
    diagonal torus of `_torus_weights` and split a derivation D into its
    components D_a of torus weight a (unknowns D_rc with w_r - w_c = a).
    1. ad(h) is a derivation for h in t, so [ad h, .] maps Der(L) to itself
       and acts on D_a by a(h); hence each D_a is a derivation.
    2. D[h, x] = [Dh, x] + [h, Dx] gives [ad h, D] = -ad(Dh) for every D.
    3. For a != 0 pick h with a(h) != 0: D_a = -ad(D_a h) / a(h) is inner.
    So Der(L) is spanned by the kernel of the weight-zero block
    (`_derivation_rows`, solved in the block's own coordinates, the
    unknowns with w_r = w_c only, then written back at r*n+c) and
    ad(X_i) for the X_i of nonzero weight; ad(X_i) of weight zero lies in
    the block already.  The result is the canonical span, the same subspace
    as the kernel of the full system.  It is not eliminated again: an inner
    ad(X_i) holds only unknowns D_sr with w_s = w_r + w_i != w_r, none of
    the block's, so only the inner rows are eliminated, and their canonical
    rows are merged by lead with the block kernel's, canonical already.
    """
    n = L.dim
    weights = _torus_weights(L)
    rows = _derivation_rows(L)
    # Row s of ad(X_i) holds _den * [X_i, X_r]_s over r, and [X_i, X_r] = -[X_r, X_i].
    inner = [{s * n + r: -c for (r, s, c) in L._adj[i]} for i in range(n) if any(weights[i])]
    if not inner:
        # Every weight is zero: the block is the whole system and Der(L) = Der(L)_0.
        return nullspace_of_rows(rows, n * n)
    block = [r * n + c for r in range(n) for c in range(n) if weights[r] == weights[c]]
    kernel = nullspace_of_rows(rows, len(block))
    # `block` is increasing, so the kernel's canonical rows stay canonical in
    # the n*n coordinates.
    spanning = [{block[k]: v for k, v in row.items()} for row in kernel._rows]
    merged = sorted(spanning + list(Subspace._from_rows(inner, n * n)._rows), key=min)
    return Subspace._from_canonical(merged, n * n)


def is_derivation(L: LieAlgebra, M: Matrix) -> bool:
    """True iff M, flattened row-major, lies in derivations(L)."""
    n = L.dim
    if M.shape != (n, n):
        raise DimensionError("matrix shape does not match algebra dimension")
    return Subspace(n * n, [[v for row in M.entries for v in row]]).is_subset(derivations(L))


# ---------------------------------------------------------------------------
# Characteristic sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacteristicSequence:
    """Non-increasing Jordan block sizes of ad(X) for a maximizing X outside [L, L].

    `witness` is the integer coordinate vector of the X that attained `blocks`.
    `certified` is true when the ranks of ad(X)^k attain the bound of
    `characteristic_sequence`, which proves `blocks` is the maximum; when it
    is false, `blocks` is the maximum over the candidates tried, a lower
    bound in lexicographic order.
    """

    blocks: tuple[int, ...]
    witness: tuple[int, ...]
    certified: bool

    @property
    def is_linear(self) -> bool:
        """True for sequences of the shape (b, 1, 1, ..., 1)."""
        return all(b == 1 for b in self.blocks[1:])


def _primes(count: int) -> list[int]:
    found: list[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


def _jordan_blocks(L: LieAlgebra, x: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(blocks, ranks) of the nilpotent ad(x) for an integer vector x.

    `ranks` holds r_k = rank ad(x)^k for k = 0 up to the first zero, so
    r_0 = n.  `blocks` is the Jordan type they determine, non-increasing:
    r_(k-1) - r_k blocks have size at least k.
    """
    n = L.dim
    # ad(_den * x) is integral and has the ranks of ad(x), so its powers keep
    # denominator 1 instead of _den**k.
    ad = L.ad_matrix([L._den * v for v in x])
    power, ranks = ad, [n, matrix_rank(ad)]
    while ranks[-1] > 0:
        if len(ranks) > n:
            raise NotNilpotentError("ad(x) is not nilpotent")
        power = power.mul(ad)
        ranks.append(matrix_rank(power))
    at_least = [ranks[s - 1] - ranks[s] for s in range(1, len(ranks))]
    blocks: list[int] = []
    for size in range(len(at_least), 0, -1):
        exactly = at_least[size - 1] - (at_least[size] if size < len(at_least) else 0)
        blocks.extend([size] * exactly)
    return tuple(blocks), tuple(ranks)


def _rank_bound(L: LieAlgebra, series: SeriesReport, center_dim: int) -> tuple[int, ...]:
    """u_0 = n, u_k = max(0, min(dim C^k, n - dim Z - 1, u_(k-1) - 1)), up to the first zero.

    `series` is the lower central series of a nilpotent L, so it ends in a
    zero term and u reaches zero no later than that term.
    """
    n = L.dim
    bound = [n]
    while bound[-1] > 0:
        lcs_dim = series.dims[len(bound)]
        bound.append(max(0, min(lcs_dim, n - center_dim - 1, bound[-1] - 1)))
    return tuple(bound)


def characteristic_sequence(L: LieAlgebra) -> CharacteristicSequence:
    """Lexicographically maximal Jordan type of ad(X) over X outside [L, L].

    The candidates are one generic (prime-weighted) combination of the unit
    vectors of `_generators`, which span a complement of [L, L] on a
    nilpotent L, then each of those vectors; the first candidate whose ranks
    attain the bound u below ends the search.

    The bound.  For every x in L, r_k = rank ad(x)^k satisfies
    - r_k <= dim C^k, since ad(x)^k maps L into the lower central series
      term C^k;
    - r_k <= n - dim Z - 1 for k >= 1, since ker ad(x) holds Z and x (and
      r_k = 0 when x lies in Z);
    - r_k <= r_(k-1) - 1 while r_(k-1) > 0, since ad(x) is nilpotent;
    so r_k <= u_k with u_0 = n and
    u_k = max(0, min(dim C^k, n - dim Z - 1, u_(k-1) - 1)).
    A candidate with r = u has pointwise-maximal ranks.  The partial sums of
    the conjugate of a Jordan type are n - r_k, so its type dominates the
    type of every ad(x), and dominance implies the lexicographic order: it is
    the maximum, and `certified` is true.  The set of x with r(x) = u is
    Zariski-open, so when it is non-empty it is dense and meets the open
    complement of [L, L]: the maximum over L is the one outside [L, L].  When no
    candidate attains u (the bound need not be attainable) the result is the
    maximum over all candidates, a lower bound, and `certified` is false.
    """
    series = lower_central_series(L)
    if series.nilindex is None:
        raise NotNilpotentError("characteristic sequence requires a nilpotent algebra")
    n = L.dim
    if n == 0:
        return CharacteristicSequence((), (), True)
    bound = _rank_bound(L, series, center(L).dim)
    complement = _generators(L)
    generic = [0] * n
    for weight, c in zip(_primes(len(complement)), complement):
        generic[c] = weight
    candidates = [generic] + [[int(c == d) for d in range(n)] for c in complement]
    best: CharacteristicSequence | None = None
    for x in candidates:
        blocks, ranks = _jordan_blocks(L, x)
        certified = ranks == bound
        if best is None or blocks > best.blocks:
            best = CharacteristicSequence(blocks, tuple(x), certified)
        if certified:
            # Its type dominates every other, so no later candidate exceeds it.
            break
    return best


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def to_json_dict(L: LieAlgebra, family: Mapping | None = None) -> dict:
    """JSON-ready dict; indices 1-based, coefficients as 'p' or 'p/q' strings."""
    brackets = []
    current: dict | None = None
    for (i, j, k, c) in L.entries():
        if current is None or current["i"] != i + 1 or current["j"] != j + 1:
            current = {"i": i + 1, "j": j + 1, "coeffs": {}}
            brackets.append(current)
        current["coeffs"][str(k + 1)] = str(c)
    out: dict = {"dim": L.dim, "basis": list(L.basis_labels), "brackets": brackets}
    if family is not None:
        out["family"] = dict(family)
    return out


def _brief(value) -> str:
    """repr(value) for an error message; a long one is cut to a prefix and its length."""
    text = repr(value)
    if len(text) <= 40:
        return text
    return f"{text[:20]}... ({len(text)} characters)"


def _json_index(value, what: str, lo: int, hi: int | None = None) -> int:
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise MalformedAlgebraError(f"{what} must be an integer {bound}, got {_brief(value)}")
    return value


# The largest dim that from_json_dict reads.  A document of a few bytes can
# name any dim, and an algebra with few brackets has about n^2 derivations,
# each a kernel row, so the cap bounds the work and memory a small file can ask for.
_MAX_JSON_DIM = 512
# The coefficient strings that to_json_dict writes: str(Fraction), "p" or "p/q".
_COEFFICIENT = re.compile(r"-?[0-9]+(/[0-9]+)?")
# The target keys that to_json_dict writes: str(k) for a 1-based index k.
_TARGET_KEY = re.compile(r"[1-9][0-9]*")


def _json_coefficient(value, where: str) -> Fraction:
    if type(value) not in (int, str):
        raise MalformedAlgebraError(
            f"{where}: coefficient must be an integer or a 'p/q' string, got {_brief(value)}"
        )
    if type(value) is str and not _COEFFICIENT.fullmatch(value):
        raise MalformedAlgebraError(f"{where}: cannot parse coefficient {_brief(value)}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise MalformedAlgebraError(f"{where}: cannot parse coefficient {_brief(value)}") from None


def from_json_dict(data: Mapping) -> LieAlgebra:
    """Read the document written by to_json_dict, rejecting anything malformed.

    Raises MalformedAlgebraError on a missing or mistyped field (including a
    non-string 'family.family' label), a 'dim' above 512 (checked before
    anything is built), an index out of range, a repeated
    (i, j) pair, a 'coeffs' key not in the form to_json_dict writes (a
    string of ASCII digits with no leading zero and no more digits than
    str(dim), so "03", "+3", " 3", "1_2" and the int 3 are all rejected)
    or an unparseable coefficient.  Each target index has one spelling, so
    distinct keys name distinct targets.  The table is then built by
    `from_brackets`, which raises JacobiViolationError, a
    MalformedAlgebraError, when it breaks the Jacobi identity.
    """
    if not isinstance(data, Mapping):
        raise MalformedAlgebraError("algebra document must be a JSON object")
    if "dim" not in data:
        raise MalformedAlgebraError("algebra document has no 'dim' field")
    dim = _json_index(data["dim"], "dim", 0)
    if dim > _MAX_JSON_DIM:
        raise MalformedAlgebraError(f"dim must be at most {_MAX_JSON_DIM}, got {_brief(dim)}")
    labels = data.get("basis")
    if labels is not None and not (
        isinstance(labels, list) and len(labels) == dim and all(isinstance(x, str) for x in labels)
    ):
        raise MalformedAlgebraError(f"'basis' must be a list of {dim} strings")
    family = data.get("family", {})
    if not isinstance(family, Mapping):
        raise MalformedAlgebraError("'family' must be a JSON object")
    if not isinstance(family.get("family", ""), str):
        raise MalformedAlgebraError("'family.family' must be a string")
    brackets = data.get("brackets", [])
    if not isinstance(brackets, list):
        raise MalformedAlgebraError("'brackets' must be a list")
    tensor: dict[tuple[int, int], dict[int, Fraction]] = {}
    width = len(str(dim))
    for entry in brackets:
        if not isinstance(entry, Mapping) or not isinstance(entry.get("coeffs"), Mapping):
            raise MalformedAlgebraError("each bracket needs integer 'i', 'j' and a 'coeffs' object")
        i = _json_index(entry.get("i"), "bracket index i", 1, dim)
        j = _json_index(entry.get("j"), "bracket index j", i + 1, dim)
        if (i - 1, j - 1) in tensor:
            raise MalformedAlgebraError(f"duplicate bracket entry for (i, j) = ({i}, {j})")
        fiber = tensor[(i - 1, j - 1)] = {}
        where = f"bracket ({i}, {j})"
        for key, c in entry["coeffs"].items():
            if not (type(key) is str and len(key) <= width and _TARGET_KEY.fullmatch(key)):
                raise MalformedAlgebraError(f"{where}: bad target index {_brief(key)}")
            k = _json_index(int(key), f"{where}: target index", 1, dim)
            fiber[k - 1] = _json_coefficient(c, where)
    return from_brackets(dim, tensor, labels)

