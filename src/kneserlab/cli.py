"""Command-line surface.

Subcommands map one-to-one onto experiment tasks; every run prints a
provenance header, a human table where one applies, and the full JSON
payload. With --out DIR the JSON and text reports are also written there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .cache import CODE_VERSION
from .experiments import ExperimentSpec, format_table, run


def _add_common(parser: argparse.ArgumentParser, *, recipes: bool = True) -> None:
    if recipes:
        parser.add_argument("recipes", nargs="*", help="factor recipe strings")
    parser.add_argument("--cache", default=None, help="JSON-lines cache file")
    parser.add_argument("--out", default=None, help="directory for report files")
    parser.add_argument("--strict", action="store_true", help="EXCEEDS results fail the run")
    parser.add_argument("--parallel", action="store_true", help="run independent tasks concurrently")
    parser.add_argument("--self-check", action="store_true", help="recompute cache hits and compare")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneserlab",
        description=(
            "Exact laboratory for general Kneser hypergraphs: colorability "
            "defects, alternation numbers, chromatic numbers and bounds, "
            "colorful witnesses, and the equivariant labeling checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", help="construct hypergraphs and write their JSON")
    _add_common(sp)

    sp = sub.add_parser("invariants", help="cd / ecd / alternation per factor")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    _add_common(sp)

    sp = sub.add_parser("chromatic", help="exact chi of the product of KG^r(factors)")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--ground", action="store_true", help="color the factors themselves")
    _add_common(sp)

    sp = sub.add_parser("bounds", help="defect lower bounds and Zhu verification")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--limit", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("witness", help="colorful balanced complete p-partite witness")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--eta", type=int, default=None, help="witness size (default: guaranteed size)")
    sp.add_argument("--coloring", default=None, help="coloring JSON (default: solve optimal)")
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument("--force", action="store_true", help="allow non-prime p (experimental)")
    _add_common(sp)

    sp = sub.add_parser("prooflab", help="exhaustive labeling consistency checks")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--coloring", default=None)
    sp.add_argument("--limit", type=int, default=None)
    sp.add_argument(
        "--negative-control",
        action="store_true",
        help="corrupt the sign tables; violations are then expected",
    )
    _add_common(sp)

    sp = sub.add_parser("reduce", help="composite-modulus defect reduction check")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--C", type=int, required=True)
    _add_common(sp)

    sp = sub.add_parser("compare", help="side-by-side defect bound table")
    sp.add_argument("--r", type=int, default=None, help="r for the given recipes")
    sp.add_argument("--limit", type=int, default=6)
    _add_common(sp)

    return parser


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec(
        recipes=tuple(getattr(args, "recipes", ()) or ()),
        tasks=(args.command,),
        r=getattr(args, "r", None),
        p=getattr(args, "p", None),
        limit=getattr(args, "limit", None),
        mode=getattr(args, "mode", "exact"),
        s=getattr(args, "s", None),
        C=getattr(args, "C", None),
        eta=getattr(args, "eta", None),
        coloring_path=getattr(args, "coloring", None),
        force=getattr(args, "force", False),
        strict=args.strict,
        parallel=args.parallel,
        negative_control=getattr(args, "negative_control", False),
        self_check=args.self_check,
        ground=getattr(args, "ground", False),
        cache_path=args.cache,
        out_dir=args.out,
    )


def _table_for(result) -> str | None:
    payload = result.payload
    if result.name == "invariants":
        rows = [
            [f["recipe"], f["n"], f["edges"], f["cd"], f["ecd"], f["n_minus_alt"], f["alt_status"]]
            for f in payload["factors"]
        ]
        return format_table(
            ["recipe", "n", "edges", "cd", "ecd", "n-alt", "alt"], rows
        )
    if result.name == "bounds":
        rows = [
            [
                recipe,
                f["n"],
                f["cd"],
                f["ecd"],
                f["n_minus_alt"],
                f["cd_bound"],
                f["ecd_bound"],
                f["alt_bound"],
                f["kg_chi"] if f["kg_chi"] is not None else "-",
            ]
            for recipe, f in zip(payload["recipes"], payload["factors"])
        ]
        table = format_table(
            ["recipe", "n", "cd", "ecd", "n-alt", "cd_bound", "ecd_bound", "alt_bound", "chi(KG^r)"],
            rows,
        )
        footer = (
            f"product_ecd_bound={payload['product_ecd_bound']}  "
            f"product_alt_bound={payload['product_alt_bound']}  "
            f"exact_chi={payload['exact_chi']}  zhu={payload['zhu_status']}"
        )
        return table + "\n" + footer
    if result.name == "compare":
        rows = [
            [
                row["recipe"],
                row["r"],
                row["n"],
                row["cd"],
                row["ecd"],
                row["n_minus_alt"],
                row["cd_bound"],
                row["ecd_bound"],
                row["alt_bound"],
                row["chi"] if row["chi"] is not None else "-",
                row["ecd_gap"],
            ]
            for row in payload["rows"]
        ]
        table = format_table(
            ["recipe", "r", "n", "cd", "ecd", "n-alt", "cd_bound", "ecd_bound", "alt_bound", "chi", "ecd-(n-alt)"],
            rows,
        )
        lines = [table]
        lines.append(f"ecd bound strictly wins on: {payload['ecd_side_wins'] or 'none'}")
        lines.append(f"alt bound strictly wins on: {payload['alt_side_wins'] or 'none'}")
        for note in payload["notes"]:
            lines.append(f"note: {note}")
        return "\n".join(lines)
    if result.name == "reduce":
        rows = [
            [rep["recipe"], rep["r"], rep["s"], rep["C"], rep["lhs_ecd_rs"], rep["rhs"], rep["t_edge_count"], rep["holds"]]
            for rep in payload["reports"]
        ]
        return format_table(["recipe", "r", "s", "C", "lhs", "rhs", "|E(T)|", "holds"], rows)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
        spec.validate()
    except ValueError as exc:
        parser.error(str(exc))
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    t0 = time.perf_counter()
    result = run(spec)
    wall = time.perf_counter() - t0
    header = {
        "tool": "kneserlab",
        "version": CODE_VERSION,
        "command": args.command,
        "recipes": list(spec.recipes),
        "params": {
            k: v
            for k, v in (
                ("r", spec.r),
                ("p", spec.p),
                ("limit", spec.limit),
                ("mode", spec.mode),
                ("s", spec.s),
                ("C", spec.C),
                ("eta", spec.eta),
            )
            if v is not None
        },
        "started": started,
        "wall_time_s": round(wall, 3),
    }
    print(f"# kneserlab {CODE_VERSION} | {args.command} | {started} | {wall:.2f}s")
    for task_result in result.results:
        table = _table_for(task_result)
        if table:
            print(table)
        print(f"[{task_result.name}] status={task_result.status}")
    report = {
        "provenance": header,
        "results": [r.to_json_dict() for r in result.results],
    }
    print(json.dumps(report["results"], indent=2, sort_keys=True))
    if spec.out_dir:
        out_dir = Path(spec.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = _claim_path(out_dir, f"{args.command}-{stamp}")
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        text_parts = [f"# kneserlab {CODE_VERSION} | {args.command} | {started}"]
        for task_result in result.results:
            table = _table_for(task_result)
            if table:
                text_parts.append(table)
            text_parts.append(f"[{task_result.name}] status={task_result.status}")
        path.with_suffix(".txt").write_text("\n".join(text_parts) + "\n")
        _write_artifacts(out_dir, stamp, result)
    return result.exit_code()


def _claim_path(out_dir: Path, stem: str) -> Path:
    """Create and return the first free one of ``<stem>.json``,
    ``<stem>-2.json``, ``<stem>-3.json``, ... The creation is exclusive, so
    runs started within the same second never overwrite each other."""
    path, n = out_dir / f"{stem}.json", 1
    while True:
        try:
            path.touch(exist_ok=False)
            return path
        except FileExistsError:
            n += 1
            path = out_dir / f"{stem}-{n}.json"


def _write_artifacts(out_dir: Path, stamp: str, result) -> None:
    """Dedicated files for built hypergraphs and found witnesses."""
    for task_result in result.results:
        if task_result.name == "build" and task_result.status == "ok":
            for i, item in enumerate(task_result.payload["hypergraphs"], start=1):
                name = "".join(
                    ch if ch.isalnum() else "-" for ch in item["recipe"]
                ).strip("-")
                data = dict(item["hypergraph"], meta=item["meta"])
                path = out_dir / f"hypergraph-{i}-{name}.json"
                path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        if task_result.name == "witness" and task_result.payload.get("witness"):
            path = _claim_path(out_dir, f"witness-{stamp}")
            path.write_text(
                json.dumps(task_result.payload["witness"], indent=2, sort_keys=True) + "\n"
            )


if __name__ == "__main__":
    sys.exit(main())
