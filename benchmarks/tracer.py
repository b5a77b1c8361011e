"""Span tracer that wraps the public functions of the liecontract modules.

The tracer times each layer from outside: it replaces a function by a wrapper
in every loaded `liecontract` module that holds it, under whatever name it is
bound there (so an alias such as `algebra.matrix_rank` for `exactlin.rank` is
traced too), and replaces a method on its class.  A traced name that no longer
resolves is an error, so a renamed function fails the traced run instead of
silently reading zero.  `Tracer.restore` puts every original object back.

Per function and per operation it records `calls`, `ms` (wall time inside the
function) and `self_ms` (that time minus the time covered by traced callees).
Functions in `LEAVES` are called tens of thousands of times per operation, so
they only update counters; every other call also appends a span
`(op, id, parent, name, start, end)` to an in-memory list.  Shape and height
counters are taken at the exact linear algebra entry points (see
`_system_shape`); the time they take is kept out of every `self_ms`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter

TRACED = (
    "families.make_g_m",
    "families.make_g_m_q",
    "algebra.LieAlgebra.bracket",
    "algebra.LieAlgebra.ad_matrix",
    "algebra.check_jacobi",
    "algebra.lower_central_series",
    "algebra.is_nilpotent",
    "algebra.is_solvable",
    "algebra.center",
    "algebra.centralizer",
    "algebra.derived_subalgebra",
    "algebra.bracket_subspaces",
    "algebra.derivations",
    "algebra.is_derivation",
    "algebra.characteristic_sequence",
    "algebra.has_abelian_direct_factor",
    "algebra.from_json_dict",
    "completeness.weight_system",
    "completeness.max_torus",
    "completeness.semidirect_product",
    "completeness.is_complete",
    "completeness.build_r_m",
    "contraction.solve_exponents",
    "contraction.scale_law",
    "contraction.limit_law",
    "contraction.check_redundancy",
    "contraction.necessary_conditions",
    "exactlin.nullspace_of_rows",
    "exactlin.rank",
    "exactlin.solve",
    "exactlin.Matrix.mul",
    "exactlin.Subspace.__init__",
)

LEAVES = frozenset(
    {
        "algebra.LieAlgebra.bracket",
        "algebra.LieAlgebra.ad_matrix",
        "algebra.bracket_subspaces",
        "exactlin.Matrix.mul",
        "exactlin.Subspace.__init__",
    }
)

SHAPED = ("exactlin.nullspace_of_rows", "exactlin.rank", "exactlin.solve")
SHAPE_FIELDS = ("rows", "cols", "rank", "nnz")
PACKAGE = "liecontract"


def metric_names() -> list[str]:
    """Every per-layer metric a traced operation reports, in a fixed order."""
    names = [f"{fn}.{kind}" for fn in TRACED for kind in ("calls", "ms", "self_ms")]
    names += [f"{fn}.{field}" for fn in SHAPED for field in SHAPE_FIELDS]
    names.append("exactlin.max_coeff_bits")
    return names


def _bits(value: Fraction) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _max_bits(values) -> int:
    return max((_bits(v) for v in values if type(v) is Fraction), default=0)


def _system_shape(name: str, args: tuple, result) -> tuple[dict[str, int], int]:
    """(rows, cols, rank, nnz) of one linear system and its largest coefficient height."""
    if name == "exactlin.nullspace_of_rows":
        rows, ncols = args[0], args[1]
        values = [v for row in rows for v in row.values() if v]
        out_values = [v for vec in result.basis for v in vec if v]
        shape = {"rows": len(rows), "cols": ncols, "rank": ncols - result.dim, "nnz": len(values)}
        return shape, max(_max_bits(values), _max_bits(out_values))
    matrix = args[0]
    values = [v for row in matrix.entries for v in row if v]
    bits = _max_bits(values)
    if name == "exactlin.rank":
        rank = result
    else:
        rank = matrix.ncols
        bits = max(bits, _max_bits(Fraction(v) for v in args[1]), _max_bits(result))
    return {"rows": matrix.nrows, "cols": matrix.ncols, "rank": rank, "nnz": len(values)}, bits


class Tracer:
    """Installs wrappers around `TRACED`; collects per-operation counters and spans."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._op = -1
        self._stats: dict[str, list] = {}
        self._shape: dict[str, int] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; raises LookupError if one does not resolve."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        try:
            for name in TRACED:
                self._install_one(name, modules)
        except BaseException:
            self.restore()
            raise

    def _install_one(self, name: str, modules: list) -> None:
        module_name, *path = name.split(".")
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        if module is None:
            raise LookupError(f"traced module {PACKAGE}.{module_name} is not loaded")
        if len(path) == 2:
            owner = getattr(module, path[0], None)
            original = vars(owner).get(path[1]) if isinstance(owner, type) else None
            if not callable(original):
                raise LookupError(f"traced method {name} does not exist")
            self._patch(owner, path[1], original, self._wrap(name, original))
            return
        original = getattr(module, path[0], None)
        if not callable(original):
            raise LookupError(f"traced function {name} does not exist")
        wrapper = self._wrap(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        stats = self._stats
        spans = None if name in LEAVES else self.spans
        shaped = name in SHAPED
        materialize = name == "exactlin.nullspace_of_rows"

        def wrapper(*args, **kwargs):
            if materialize and not isinstance(args[0], list):
                args = (list(args[0]),) + args[1:]
            parent = stack[-1]
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                record = stats[name]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                parent[0] += elapsed
                if spans is not None:
                    spans.append((self._op, frame[1], parent[1], name, start, end))
            if shaped:
                hook_start = perf_counter()
                self._count_shape(name, args, result)
                parent[0] += perf_counter() - hook_start
            return result

        return wrapper

    def _count_shape(self, name: str, args: tuple, result) -> None:
        shape, bits = _system_shape(name, args, result)
        for field, value in shape.items():
            self._shape[f"{name}.{field}"] += value
        self._shape["exactlin.max_coeff_bits"] = max(self._shape["exactlin.max_coeff_bits"], bits)

    # -- per-operation accounting ---------------------------------------------

    def begin_op(self) -> None:
        """Reset the counters; calls until `end_op` belong to one operation."""
        self._op += 1
        self._stats.clear()
        self._stats.update({name: [0, 0.0, 0.0] for name in TRACED})
        self._shape = {f"{fn}.{field}": 0 for fn in SHAPED for field in SHAPE_FIELDS}
        self._shape["exactlin.max_coeff_bits"] = 0
        self._stack[:] = [[0.0, -1]]

    def end_op(self) -> dict[str, float]:
        """Metrics of the operation since `begin_op`, keyed by `metric_names()`."""
        out: dict[str, float] = {}
        for name in TRACED:
            calls, total, own = self._stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.ms"] = total * 1000.0
            out[f"{name}.self_ms"] = own * 1000.0
        out.update(self._shape)
        return out
