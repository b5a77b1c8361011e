"""The tracer patches every alias, fails loudly on a missing name, and restores."""

import contextlib
import io
import json
import os

import pytest

import run
import tracer
from liecontract import algebra, cli, exactlin
from liecontract.exactlin import Subspace


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.run(argv)
    return rc, out.getvalue()


def test_aliases_are_patched_and_restored():
    rank, center, init = exactlin.rank, cli.center, Subspace.__init__
    assert algebra.matrix_rank is rank
    with tracer.Tracer():
        assert algebra.matrix_rank is exactlin.rank is not rank
        assert cli.center is algebra.center is not center
        assert Subspace.__init__ is not init
    assert algebra.matrix_rank is exactlin.rank is rank
    assert cli.center is algebra.center is center
    assert Subspace.__init__ is init


@pytest.mark.parametrize("missing", ["algebra.no_such_function", "exactlin.Matrix.no_such_method", "nomodule.f"])
def test_missing_name_fails_and_restores(monkeypatch, missing):
    rank = exactlin.rank
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + (missing,))
    with pytest.raises(LookupError):
        tracer.Tracer().install()
    assert exactlin.rank is rank and algebra.matrix_rank is rank


def test_traced_op_counts_and_output():
    argv = ["invariants", "--family", "gmq", "--m", "4", "--q", "4"]
    plain = _run(argv)
    trace = tracer.Tracer()
    with trace:
        trace.begin_op()
        traced = _run(argv)
        metrics = trace.end_op()
    assert traced == plain
    assert set(metrics) == set(tracer.metric_names())
    # The series is computed once for the panel and once more for char_seq.
    assert metrics["algebra.lower_central_series.calls"] == 2
    assert metrics["algebra.derivations.calls"] == 1
    assert metrics["exactlin.nullspace_of_rows.cols"] >= 81
    assert metrics["exactlin.rank.calls"] > 0
    assert metrics["exactlin.max_coeff_bits"] >= 1
    for name in tracer.TRACED:
        assert 0 <= metrics[f"{name}.self_ms"] <= metrics[f"{name}.ms"] + 1e-9
    spans = [s for s in trace.spans if s[3] == "algebra.derivations"]
    assert len(spans) == 1 and spans[0][0] == 0


def test_counts_repeat_exactly():
    argv = ["check", "--m", "4", "--q", "3,5"]
    trace = tracer.Tracer()
    runs = []
    for _ in range(2):
        with trace:
            trace.begin_op()
            assert _run(argv)[0] == 0
            runs.append(trace.end_op())
    for name in tracer.metric_names():
        if not name.endswith("ms"):
            assert runs[0][name] == runs[1][name], name


def test_benchmark_json_lists_every_layer_metric():
    root = os.path.dirname(os.path.dirname(os.path.abspath(tracer.__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert listed == [(name, run._unit(name)) for name in tracer.metric_names()] + [("trace.overhead_s", "s")]
