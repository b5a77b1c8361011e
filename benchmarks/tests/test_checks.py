"""Output checks: the seed output passes, corrupted output counts as a failed op."""

import csv
import io

import pytest

from run import Runner
from workloads import GOLDEN_TABLE, WORKLOADS, Prepared, check_deep, check_dense, check_table, table_row_ok

PASS_LINES = [f"ok: step {i}" for i in range(8)] + ["PASS 8/8"]
PANEL = {"dim": "9", "nilindex": "3", "lcs_dims": "9,5,2,0", "center_dim": "2", "b1": "4", "der_dim": "22"}


def _golden() -> str:
    with open(GOLDEN_TABLE, encoding="utf-8", newline="") as handle:
        return handle.read()


def _table() -> Prepared:
    return Prepared(("table",), _golden(), "table")


def _panel_text(panel) -> str:
    return "label: input\n" + "".join(f"{k}: {v}\n" for k, v in panel.items()) + "char_seq: 3,3,2,1\nrank: 0\n"


def test_golden_table_meets_the_criteria():
    assert check_table(_table(), 0, _golden()) == 34


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text.replace("true", "false", 1),
        lambda text: text[:-1],
        lambda text: text + "\n",
    ],
)
def test_corrupted_table_fails(corrupt):
    assert check_table(_table(), 0, corrupt(_golden())) == 0
    assert check_table(_table(), 1, _golden()) == 0


def test_row_criteria_reject_wrong_values():
    rows = list(csv.DictReader(io.StringIO(_golden())))
    gm = next(r for r in rows if r["m"] == "5" and not r["q"])
    top = next(r for r in rows if r["m"] == "5" and r["q"] == "6")
    low = next(r for r in rows if r["m"] == "5" and r["q"] == "3")
    assert table_row_ok(gm) and table_row_ok(top) and table_row_ok(low)
    assert not table_row_ok({**gm, "char_seq": "8;2"})
    assert not table_row_ok({**gm, "center_dim": "3"})
    assert not table_row_ok({**top, "maximal_rank": "false"})
    assert not table_row_ok({**low, "maximal_rank": "true"})
    assert not table_row_ok({**low, "rank": "2"})
    assert not table_row_ok({**low, "complete": "false"})


def test_deep_check_needs_all_eight_passes():
    prepared = Prepared(("check",), None, "check")
    assert check_deep(prepared, 0, "\n".join(PASS_LINES) + "\n") == 1
    assert check_deep(prepared, 1, "\n".join(PASS_LINES) + "\n") == 0
    failing = ["FAIL: step 0"] + PASS_LINES[1:-1] + ["FAIL 7/8"]
    assert check_deep(prepared, 0, "\n".join(failing) + "\n") == 0
    assert check_deep(prepared, 0, "\n".join(PASS_LINES[1:]) + "\n") == 0


def test_dense_panel_must_match_reference():
    prepared = Prepared(("invariants",), dict(PANEL), "invariants")
    assert check_dense(prepared, 0, _panel_text(PANEL)) == 1
    for key in PANEL:
        assert check_dense(prepared, 0, _panel_text({**PANEL, key: "0"})) == 0
    assert check_dense(prepared, 2, _panel_text(PANEL)) == 0


class _FakeCli:
    """Stands in for liecontract.cli: prints a fixed text, or raises."""

    def __init__(self, text=None, rc=0):
        self.text, self.rc = text, rc

    def run(self, argv):
        if self.text is None:
            raise ValueError("boom")
        print(self.text, end="")
        return self.rc


@pytest.mark.parametrize(
    "cli, expected",
    [
        (_FakeCli("\n".join(PASS_LINES) + "\n"), 1),
        (_FakeCli("\n".join(PASS_LINES).replace("PASS 8/8", "PASS 7/8") + "\n"), 0),
        (_FakeCli("\n".join(PASS_LINES) + "\n", rc=1), 0),
        (_FakeCli(None), 0),
    ],
)
def test_runner_counts_corrupted_output_as_failed(cli, expected):
    runner = Runner(cli, WORKLOADS["check-deep"])
    seconds, algebras = runner.op(Prepared(("check",), None, "check"))
    assert seconds >= 0
    assert algebras == expected
