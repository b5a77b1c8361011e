"""The benchmark's workloads: seeded inputs, the CLI operation, and its output check.

Each workload is one `liecontract` CLI command that a user or a script runs
repeatedly.  `prepare(seed, workdir)` makes the inputs and the reference data
the check compares against; `check(prepared, rc, stdout)` returns how many
algebras the operation completed correctly (0 when anything is wrong).
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from dense import dense_member

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_TABLE = os.path.join(HERE, "golden", "table-sweep.csv")

TABLE_ARGV = ("table", "--m", "4..6", "--max-k", "2", "--format", "csv")
TABLE_ROWS = 34
DEEP_M = 12
DENSE_M, DENSE_Q = 4, (4,)
PANEL_KEYS = ("dim", "nilindex", "lcs_dims", "center_dim", "b1", "der_dim")


@dataclass(frozen=True)
class Prepared:
    """Inputs and reference data for one seed."""

    argv: tuple[str, ...]
    reference: object
    description: str


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, str, Callable], Prepared]
    check: Callable[[Prepared, int, str], int]


# ---------------------------------------------------------------------------
# table-sweep: the paper's table over m = 4..6 with up to two cuts.
# ---------------------------------------------------------------------------


def _ints(cell: str) -> tuple[int, ...]:
    return tuple(int(v) for v in cell.split(";")) if cell else ()


def table_row_ok(row: dict[str, str]) -> bool:
    """Criterion 5 for gm rows, criterion 7 for cut rows, completeness for all."""
    m = int(row["m"])
    q = _ints(row["q"])
    rank = int(row["rank"])
    if row["complete"] != "true":
        return False
    if not q:
        return (
            int(row["nilindex"]) == 2 * m - 1
            and int(row["b1"]) == 2
            and int(row["center_dim"]) == 2
            and rank == 2
            and _ints(row["char_seq"]) == (2 * m - 1, 1, 1)
        )
    maximal = row["maximal_rank"] == "true"
    return 2 < rank <= m + 1 and maximal == (q == (m + 1,))


def _prepare_table(seed: int, workdir: str, run_cli: Callable) -> Prepared:
    # The sweep has no free input: every seed runs the same 34 rows.
    with open(GOLDEN_TABLE, "r", encoding="utf-8", newline="") as handle:
        golden = handle.read()
    return Prepared(TABLE_ARGV, golden, "table --m 4..6 --max-k 2 --format csv")


def check_table(prepared: Prepared, rc: int, stdout: str) -> int:
    if rc != 0 or stdout != prepared.reference:
        return 0
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if len(rows) != TABLE_ROWS or not all(table_row_ok(row) for row in rows):
        return 0
    return len(rows)


# ---------------------------------------------------------------------------
# check-deep: the full verification bundle for one dim-25 algebra.
# ---------------------------------------------------------------------------


# The two-cut lists for m = 12 whose cut algebra has a lower central series of
# total dimension 80..90.  Every two-cut list has diagonal rank 4 (dim-25
# algebra, dim-29 extension), but the series length varies, and with it the
# bracket count per operation by about a quarter across all 55 lists.  Within
# this set one operation makes 18.2k..18.7k bracket calls, so the seed changes
# the algebra and not the amount of work.
DEEP_CUTS = (
    (3, 10), (4, 9), (4, 10), (4, 11), (5, 9), (5, 12), (6, 9), (6, 13),
    (7, 9), (7, 13), (8, 10), (8, 12), (8, 13), (9, 11), (9, 12),
)


def deep_cut_list(seed: int) -> tuple[int, int]:
    """The seeded cut list for check-deep, drawn from DEEP_CUTS."""
    return random.Random(seed).choice(DEEP_CUTS)


def _prepare_deep(seed: int, workdir: str, run_cli: Callable) -> Prepared:
    q = ",".join(str(v) for v in deep_cut_list(seed))
    return Prepared(("check", "--m", str(DEEP_M), "--q", q), None, f"check --m {DEEP_M} --q {q}")


def check_deep(prepared: Prepared, rc: int, stdout: str) -> int:
    lines = stdout.splitlines()
    if rc != 0 or len(lines) != 9 or lines[-1] != "PASS 8/8":
        return 0
    return 1 if all(line.startswith("ok: ") for line in lines[:-1]) else 0


# ---------------------------------------------------------------------------
# invariants-dense: the invariant panel of a family member in a dense basis.
# ---------------------------------------------------------------------------


def parse_panel(stdout: str) -> dict[str, str]:
    """The `key: value` lines of the text invariant panel."""
    panel = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            panel[key] = value
    return panel


def _prepare_dense(seed: int, workdir: str, run_cli: Callable) -> Prepared:
    q = ",".join(str(v) for v in DENSE_Q)
    rc, adapted_json = run_cli(("gen", "--family", "gmq", "--m", str(DENSE_M), "--q", q))
    rc_panel, adapted_panel = run_cli(("invariants", "--family", "gmq", "--m", str(DENSE_M), "--q", q))
    if rc or rc_panel:
        raise RuntimeError("reference panel for the adapted basis failed")
    reference = {key: parse_panel(adapted_panel)[key] for key in PANEL_KEYS}
    payload, _, _ = dense_member(json.loads(adapted_json), seed)
    path = os.path.join(workdir, f"dense-g{DENSE_M}-q{q}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return Prepared(("invariants", "--in", path), reference, f"invariants --in <g{DENSE_M}({q}), seed {seed}>")


def check_dense(prepared: Prepared, rc: int, stdout: str) -> int:
    if rc != 0:
        return 0
    panel = parse_panel(stdout)
    return 1 if all(panel.get(key) == value for key, value in prepared.reference.items()) else 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table-sweep", _prepare_table, check_table),
        Workload("check-deep", _prepare_deep, check_deep),
        Workload("invariants-dense", _prepare_dense, check_dense),
    )
}
