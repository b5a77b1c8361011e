"""End-to-end and per-layer benchmark of the liecontract CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Each workload is one CLI command run in-process through `liecontract.cli.run`
by a single client in a closed loop: the next operation starts when the
previous one has returned and its output has been checked.  The package is
imported from `src/` next to this directory, with LIECONTRACT_THREADS unset,
so every operation runs in this one process.

Set-up (`setup_s`) is the import, the seeded inputs and reference data (made
SETUP_REPEATS times, median taken) and one checked warm-up operation.  The
run then measures operations for `--seconds` seconds.  With `--trace 0` it
reports the end-to-end metrics of BENCHMARK.json.  With `--trace 1` it
alternates untraced and traced operations, reports the per-layer metrics
(medians over the traced operations) plus the tracing overhead, and writes
every traced operation's counters and spans to `benchmarks/out/`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--workload all` runs each workload in
its own child process and ends with one combined object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
THREADS_ENV = "LIECONTRACT_THREADS"

sys.path.insert(0, HERE)

from tracer import Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _import_cli():
    """Import `liecontract.cli` from this checkout's `src/`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "liecontract", "__init__.py")):
        raise ImportError(f"no liecontract package under {SRC}")
    sys.path.insert(0, SRC)
    import liecontract
    from liecontract import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(liecontract.__file__))) != SRC:
        raise ImportError(f"liecontract was imported from {liecontract.__file__}, not {SRC}")
    return cli


class Runner:
    """Runs one CLI operation in-process and checks its output."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload

    def run_cli(self, argv) -> tuple[int, str]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                rc = self.cli.run(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc, buffer.getvalue()

    def op(self, prepared) -> tuple[float, int]:
        """(wall seconds, algebras completed and checked); 0 algebras means failed."""
        gc.collect()
        start = perf_counter()
        try:
            rc, stdout = self.run_cli(prepared.argv)
        except Exception:
            elapsed = perf_counter() - start
            traceback.print_exc()
            return elapsed, 0
        elapsed = perf_counter() - start
        return elapsed, self.workload.check(prepared, rc, stdout)


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_workload(args) -> int:
    os.environ.pop(THREADS_ENV, None)
    start = perf_counter()
    cli = _import_cli()
    import_s = perf_counter() - start

    workload = WORKLOADS[args.workload]
    runner = Runner(cli, workload)
    os.makedirs(OUT, exist_ok=True)
    prepare_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        prepared = workload.prepare(args.seed, OUT, runner.run_cli)
        prepare_times.append(perf_counter() - t0)
    warmup_s, warmup_algebras = runner.op(prepared)
    setup_s = import_s + _median(prepare_times) + warmup_s

    tracer = Tracer() if args.trace else None
    untraced: list[tuple[float, int]] = []
    traced: list[tuple[float, int]] = []
    layer_ops: list[dict] = []
    deadline = perf_counter() + args.seconds
    while True:
        if tracer is not None and len(untraced) > len(traced):
            with tracer:
                tracer.begin_op()
                traced.append(runner.op(prepared))
                layer_ops.append(tracer.end_op())
        else:
            untraced.append(runner.op(prepared))
        if perf_counter() >= deadline and (tracer is None or traced):
            break

    ops = untraced + traced
    attempted = len(ops)
    failed = sum(1 for _, algebras in ops if algebras == 0)
    correct = failed == 0 and warmup_algebras > 0
    op_s_p50 = _median([s for s, _ in untraced])
    print(f"workload {workload.name}: {prepared.description}, seed {args.seed}")
    print(
        f"setup_s        {setup_s:.4f} s  (import {import_s:.4f}, inputs {_median(prepare_times):.4f}, "
        f"warm-up op {warmup_s:.4f}{'' if warmup_algebras else ', FAILED'})"
    )
    print(f"failed_frac    {failed / attempted:.4f}  ({failed}/{attempted} ops)")

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s_p50": (op_s_p50, "s"),
            "algebras_per_s": (sum(a for _, a in untraced) / len(untraced) / op_s_p50, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"op samples     n={len(untraced)}")
        for name, (value, unit) in metrics.items():
            print(f"{name:<15}{value:.4f} {unit}")
    else:
        metrics = _per_layer(workload.name, args.seed, prepared, untraced, traced, layer_ops, tracer.spans)
    print(_result(correct, attempted, failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}))
    return 0


def _per_layer(workload: str, seed: int, prepared, untraced, traced, layer_ops, spans) -> dict:
    """Median per-layer metrics and the tracing overhead; writes the detail file."""
    traced_s = _median([s for s, _ in traced])
    overhead_s = traced_s - _median([s for s, _ in untraced])
    layers = {name: _median([op[name] for op in layer_ops]) for name in metric_names()}
    path = os.path.join(OUT, f"layers-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "command": list(prepared.argv),
                "untraced_op_s": [s for s, _ in untraced],
                "traced_op_s": [s for s, _ in traced],
                "trace_overhead_s": overhead_s,
                "median": layers,
                "ops": layer_ops,
                "spans": [list(span) for span in spans],
            },
            handle,
        )
    print(f"trace.overhead_s {overhead_s:.4f} s  (traced n={len(traced)}, untraced n={len(untraced)})")
    print(f"per-layer detail written to {os.path.relpath(path, ROOT)}")
    print("largest self times per traced op (every metric is in the result line):")
    for name in sorted((n for n in layers if n.endswith(".self_ms")), key=lambda n: -layers[n])[:10]:
        print(f"  {name} = {layers[name]:.1f} ms ({layers[name] / (traced_s * 1000.0):.1%})")
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("bits"):
        return "bits"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS and set-up stay per workload."""
    combined: dict = {}
    correct, attempted, failed = True, 0, 0
    for name in sorted(WORKLOADS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(_result(correct, attempted, failed, combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (ImportError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
