"""Command-line surface: generate families, inspect invariants, verify claims.

Subcommands: gen, invariants, contract, verify-complete, check, table.  All
data output is deterministic (identical flags give byte-identical output);
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 invalid flags, parameters, LIECONTRACT_THREADS value or input file
(unreadable, not JSON, malformed, or a tensor that breaks Jacobi).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .algebra import (
    LieAlgebra,
    MalformedAlgebraError,
    betti1,
    center,
    characteristic_sequence,
    check_jacobi,
    derivations,
    from_json_dict,
    has_abelian_direct_factor,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    to_json_dict,
)
from .completeness import (
    build_r_m,
    diagonal_rank,
    is_complete,
    max_torus,
    semidirect_product,
)
from .contraction import (
    DivergentLimitError,
    check_redundancy,
    heisenberg_exponents,
    necessary_conditions,
    scale_law,
    limit_law,
    solve_exponents,
)
from .exactlin import DimensionError
from .families import (
    FamilySpec,
    InvalidFamilyError,
    make_g_m,
    make_g_m_q,
    make_heisenberg_plus_abelian,
    all_q_lists,
)

THREADS_ENV = "LIECONTRACT_THREADS"

TABLE_COLUMNS = (
    "m",
    "q",
    "dim",
    "nilindex",
    "lcs",
    "b1",
    "center_dim",
    "der_dim",
    "char_seq",
    "rank",
    "maximal_rank",
    "complete",
)


def _parse_q(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidFamilyError(f"cannot parse q list {text!r}") from exc


def _parse_m_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            start, stop = int(lo), int(hi)
            if stop < start:
                raise ValueError
            return tuple(range(start, stop + 1))
        return (int(text),)
    except ValueError as exc:
        raise InvalidFamilyError(f"cannot parse m range {text!r}") from exc


def _spec_from_args(args) -> FamilySpec:
    return FamilySpec(
        family=args.family,
        m=args.m,
        n=args.n,
        q_list=_parse_q(args.q),
    )


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    else:
        print(text)


def _fmt_ints(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    algebra = spec.build()
    _emit(json.dumps(to_json_dict(algebra, family=spec.metadata()), indent=2), args.output)
    return 0


def _invariant_data(algebra: LieAlgebra, label: str) -> dict:
    """The invariant panel of one algebra.

    `rank` is the diagonal rank in the given basis: the torus rank for the
    families' adapted bases, only a lower bound for an `--in` file.
    """
    series = lower_central_series(algebra)
    nilpotent = series.nilindex is not None
    data = {
        "label": label,
        "dim": algebra.dim,
        "nilindex": series.nilindex,
        "lcs_dims": list(series.dims),
        "center_dim": center(algebra).dim,
        "b1": betti1(algebra),
        "der_dim": derivations(algebra).dim,
        "char_seq": list(characteristic_sequence(algebra).blocks) if nilpotent else None,
        "rank": diagonal_rank(algebra),
    }
    return data


def _cmd_invariants(args) -> int:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except RecursionError:
                raise MalformedAlgebraError("input JSON is nested too deeply") from None
        algebra = from_json_dict(payload)
        label = payload.get("family", {}).get("family", "input")
    else:
        if not args.family:
            raise InvalidFamilyError("need --family or --in")
        spec = _spec_from_args(args)
        algebra = spec.build()
        label = spec.label()
    data = _invariant_data(algebra, label)
    if args.format == "json":
        _emit(json.dumps(data, indent=2), args.output)
        return 0
    lines = [
        f"label: {data['label']}",
        f"dim: {data['dim']}",
        f"nilindex: {data['nilindex'] if data['nilindex'] is not None else 'not nilpotent'}",
        f"lcs_dims: {_fmt_ints(data['lcs_dims'])}",
        f"center_dim: {data['center_dim']}",
        f"b1: {data['b1']}",
        f"der_dim: {data['der_dim']}",
        f"char_seq: {_fmt_ints(data['char_seq']) if data['char_seq'] is not None else 'not nilpotent'}",
        f"rank: {data['rank']}",
    ]
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_contract(args) -> int:
    q = _parse_q(args.q)
    m = args.m
    if m is None:
        raise InvalidFamilyError("contract needs --m")
    if args.heisenberg:
        exponents = heisenberg_exponents(m)
        source = make_g_m_q(m, q) if q else make_g_m(m)
        source_label = f"g{m}({_fmt_ints(q)})" if q else f"g{m}"
        target = make_heisenberg_plus_abelian(m)
        target_label = f"h{m - 1}+C2"
    else:
        if not q:
            raise InvalidFamilyError("contract needs --q (or --heisenberg)")
        exponents = solve_exponents(m, q, args.n1, args.n2)
        source = make_g_m(m)
        source_label = f"g{m}"
        target = make_g_m_q(m, q)
        target_label = f"g{m}({_fmt_ints(q)})"
    law = scale_law(source, exponents)
    limit = limit_law(law)
    match = limit == target
    if args.emit_exponents:
        doc = {
            "m": m,
            "q": list(q),
            "n1": args.n1,
            "n2": args.n2,
            "a": list(exponents),
            "law": law.to_json_dict(),
            "limit": to_json_dict(limit),
            "target": target_label,
            "target_match": match,
        }
        _emit(json.dumps(doc, indent=2), args.output)
    else:
        lines = [
            f"source: {source_label}",
            f"target: {target_label}",
            f"exponents: {_fmt_ints(exponents)}",
            "law entries (i,j,k,c,e):",
        ]
        for (i, j, k, c, e) in law.entries:
            lines.append(f"  {i + 1},{j + 1},{k + 1},{c},{e}")
        lines.append("limit brackets (i,j,k,c):")
        for (i, j, k, c) in limit.entries():
            lines.append(f"  {i + 1},{j + 1},{k + 1},{c}")
        lines.append(f"limit matches target: {'true' if match else 'false'}")
        _emit("\n".join(lines), args.output)
    return 0 if match else 1


def _cmd_verify_complete(args) -> int:
    q = _parse_q(args.q)
    if args.m is None:
        raise InvalidFamilyError("verify-complete needs --m")
    extension = build_r_m(args.m, q)
    certificate = is_complete(extension)
    _emit(json.dumps(certificate.to_json_dict(), indent=2), args.output)
    return 0 if certificate.is_complete else 1


def _cmd_check(args) -> int:
    q = _parse_q(args.q)
    m = args.m
    if m is None or not q:
        raise InvalidFamilyError("check needs --m and --q")
    lines: list[str] = []
    failures = 0

    def record(ok: bool, message: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        lines.append(f"{'ok' if ok else 'FAIL'}: {message}")

    source = make_g_m(m)
    target = make_g_m_q(m, q)
    record(check_jacobi(source).ok, f"jacobi g{m}")
    record(check_jacobi(target).ok, f"jacobi g{m}({_fmt_ints(q)})")

    exponents = solve_exponents(m, q, 1, 1)
    limit = limit_law(scale_law(source, exponents))
    record(limit == target, "contraction limit equals the cut family")

    record(check_redundancy(m, q), "pairing balance independent of the parameters")

    report = necessary_conditions(source, limit)
    record(
        report.all_hold(strict_der=(source != limit)),
        "necessary conditions "
        f"(der {report.der_dims[0]} -> {report.der_dims[1]}, "
        f"derived {report.derived_dims[0]} -> {report.derived_dims[1]}, "
        f"center {report.center_dims[0]} -> {report.center_dims[1]}, "
        f"rank {report.ranks[0]} -> {report.ranks[1]})",
    )

    torus = max_torus(target)
    rank = len(torus)
    b1 = betti1(target)
    bounds_ok = 2 < rank <= m + 1
    maximal_expected = len(q) == 1 and q[0] == m + 1
    record(
        bounds_ok and (rank == b1) == maximal_expected,
        f"rank bounds (rank {rank}, b1 {b1})",
    )

    blocks = characteristic_sequence(target)
    record(
        not has_abelian_direct_factor(target) and not blocks.is_linear,
        f"nonsplit with nonlinear characteristic sequence ({_fmt_ints(blocks.blocks)})",
    )

    extension = semidirect_product(target, torus)
    certificate = is_complete(extension)
    record(
        certificate.is_complete and is_solvable(extension) and not is_nilpotent(extension),
        f"extension complete and solvable (dim {certificate.algebra_dim}, "
        f"center {certificate.center_dim}, der {certificate.der_dim})",
    )

    total = len(lines)
    lines.append(f"{'PASS' if failures == 0 else 'FAIL'} {total - failures}/{total}")
    _emit("\n".join(lines), args.output)
    return 0 if failures == 0 else 1


def _table_row(spec: tuple[int, tuple[int, ...]]) -> dict:
    """One table row; in the adapted basis `rank` is the torus rank."""
    m, q = spec
    algebra = make_g_m_q(m, q) if q else make_g_m(m)
    series = lower_central_series(algebra)
    torus = max_torus(algebra)
    rank = len(torus)
    b1 = betti1(algebra)
    certificate = is_complete(semidirect_product(algebra, torus))
    return {
        "m": m,
        "q": list(q),
        "dim": algebra.dim,
        "nilindex": series.nilindex,
        "lcs": list(series.dims),
        "b1": b1,
        "center_dim": center(algebra).dim,
        "der_dim": derivations(algebra).dim,
        "char_seq": list(characteristic_sequence(algebra).blocks),
        "rank": rank,
        "maximal_rank": rank == b1,
        "complete": certificate.is_complete,
    }


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


def _render_table(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"rows": rows}, indent=2)
    rendered = [[_format_cell(row[k]) for k in TABLE_COLUMNS] for row in rows]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        writer.writerows(rendered)
        return buffer.getvalue().rstrip("\n")
    header = "| " + " | ".join(TABLE_COLUMNS) + " |"
    divider = "|" + "|".join(" --- " for _ in TABLE_COLUMNS) + "|"
    body = ["| " + " | ".join(cells) + " |" for cells in rendered]
    return "\n".join([header, divider] + body)


def _worker_count(setting: str | None, jobs: int, cpus: int | None) -> int:
    """Worker processes for `jobs` table rows: min(setting, jobs, cpus).

    `setting` is the raw LIECONTRACT_THREADS value; unset or empty means 1.
    """
    if not setting:
        return 1
    try:
        requested = int(setting)
        if requested < 1:
            raise ValueError
    except ValueError:
        raise InvalidFamilyError(
            f"{THREADS_ENV} must be a positive integer, got {setting!r}"
        ) from None
    return min(requested, jobs, cpus or 1)


def _cmd_table(args) -> int:
    if args.max_k < 0:
        raise InvalidFamilyError(f"--max-k must be a nonnegative integer, got {args.max_k}")
    specs: list[tuple[int, tuple[int, ...]]] = []
    for m in _parse_m_range(args.m):
        specs.append((m, ()))
        specs.extend((m, q) for q in all_q_lists(m, args.max_k))
    workers = _worker_count(os.environ.get(THREADS_ENV), len(specs), os.cpu_count())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_table_row, specs))
    else:
        rows = [_table_row(spec) for spec in specs]
    _emit(_render_table(rows, args.format), args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=("gm", "gmq", "filiform", "heisenberg", "abelian"))
    parser.add_argument("--m", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--q", help="comma-separated cut list, e.g. 3,5")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecontract",
        description="Exact toolkit for chain-and-pairing nilpotent algebras, "
        "their diagonal contractions, and complete solvable extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a family member as JSON")
    _add_family_flags(gen)
    gen.add_argument("-o", "--output")
    gen.set_defaults(handler=_cmd_gen)

    inv = sub.add_parser("invariants", help="print the invariant panel of an algebra")
    _add_family_flags(inv)
    inv.add_argument("--in", dest="input", help="read the algebra from a JSON file")
    inv.add_argument("--format", choices=("text", "json"), default="text")
    inv.add_argument("-o", "--output")
    inv.set_defaults(handler=_cmd_invariants)

    con = sub.add_parser("contract", help="run a diagonal contraction and verify the limit")
    con.add_argument("--m", type=int)
    con.add_argument("--q", help="cut list; the contraction target (or source with --heisenberg)")
    con.add_argument("--heisenberg", action="store_true", help="degenerate to Heisenberg plus C^2")
    con.add_argument("--n1", type=int, default=1)
    con.add_argument("--n2", type=int, default=1)
    con.add_argument("--emit-exponents", action="store_true", help="emit a JSON document")
    con.add_argument("-o", "--output")
    con.set_defaults(handler=_cmd_contract)

    ver = sub.add_parser("verify-complete", help="certify completeness of the solvable extension")
    ver.add_argument("--m", type=int)
    ver.add_argument("--q", help="cut list (omit for the uncut chain algebra)")
    ver.add_argument("-o", "--output")
    ver.set_defaults(handler=_cmd_verify_complete)

    chk = sub.add_parser("check", help="run the full verification bundle for one (m, q)")
    chk.add_argument("--m", type=int)
    chk.add_argument("--q")
    chk.add_argument("-o", "--output")
    chk.set_defaults(handler=_cmd_check)

    tab = sub.add_parser("table", help="sweep families and tabulate invariants")
    tab.add_argument("--m", required=True, help="single value or range, e.g. 4..6")
    tab.add_argument("--max-k", type=int, default=2)
    tab.add_argument("--format", choices=("csv", "json", "md"), default="csv")
    tab.add_argument("-o", "--output")
    tab.set_defaults(handler=_cmd_table)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        InvalidFamilyError,
        DimensionError,
        MalformedAlgebraError,
        json.JSONDecodeError,
        UnicodeDecodeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergentLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
