"""Command-line surface.

Subcommands are generated from the task table `TASKS`; every run prints a
provenance header, a human table where one applies, and the full JSON
payload. With --out DIR the JSON and text reports are also written there,
before anything is printed; a DIR that cannot be made is a usage error
before the task runs, and one made for a spec that `run` refuses is removed
again. A closed stdout ends the output, not the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

from .cache import CODE_VERSION
from .experiments import TASKS, ExperimentSpec, TaskResult, run


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
    for name, task in TASKS.items():
        sp = sub.add_parser(name, help=task.help)
        for flag, kwargs in task.args:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("recipes", nargs="*", help="factor recipe strings")
        sp.add_argument("--cache", dest="cache_path", metavar="PATH", help="JSON-lines cache file")
        sp.add_argument("--out", dest="out_dir", metavar="DIR", help="directory for report files")
        sp.add_argument("--strict", action="store_true", help="EXCEEDS results fail the run")
        sp.add_argument("--self-check", action="store_true", help="recompute cache hits and compare")
    return parser


# what every subcommand has besides its task's arguments
_SHARED = ("command", "recipes", "cache_path", "out_dir", "strict", "self_check")


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    fields = dict(vars(args))
    del fields["out_dir"], fields["strict"]  # read by `main` alone
    fields["recipes"] = tuple(fields["recipes"])
    return ExperimentSpec(task=fields.pop("command"), **fields)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = spec_from_args(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    made: list[Path] = []  # the directories --out creates, deepest first
    if out_dir:
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            parser.error(f"--out {args.out_dir}: {exc}")
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    t0 = time.perf_counter()
    try:
        result = run(spec)
    except ValueError as exc:  # the spec is invalid: `run` started nothing
        for d in made:
            with contextlib.suppress(OSError):  # another run wrote into it meanwhile
                d.rmdir()
        parser.error(str(exc))
    wall = time.perf_counter() - t0
    header = {
        "tool": "kneserlab",
        "version": CODE_VERSION,
        "command": args.command,
        "recipes": list(spec.recipes),
        "params": {k: v for k, v in vars(args).items() if k not in _SHARED and v is not None},
        "started": started,
        "wall_time_s": round(wall, 3),
    }
    table = TASKS[result.name].table
    body = [table(result.payload)] if table and result.status != "failed" else []
    body.append(f"[{result.name}] status={result.status}")
    report = {"provenance": header, "results": [result.to_json_dict()]}
    if out_dir:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = _claim_path(out_dir, f"{args.command}-{stamp}")
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        text = "\n".join([f"# kneserlab {CODE_VERSION} | {args.command} | {started}", *body])
        path.with_suffix(".txt").write_text(text + "\n")
        _write_artifacts(out_dir, stamp, result)
    try:
        print(f"# kneserlab {CODE_VERSION} | {args.command} | {started} | {wall:.2f}s")
        print("\n".join(body))
        print(json.dumps(report["results"], indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: that ends the output, not the run; what is
        # still buffered goes to the null device at the interpreter's exit
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    failed = result.status in ("failed", "violation")
    return int(failed or (args.strict and result.status == "exceeds"))


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


def _write_artifacts(out_dir: Path, stamp: str, result: TaskResult) -> None:
    """Dedicated files for built hypergraphs and found witnesses."""
    if result.name == "build" and result.status == "ok":
        for i, item in enumerate(result.payload["hypergraphs"], start=1):
            name = "".join(ch if ch.isalnum() else "-" for ch in item["recipe"]).strip("-")
            data = dict(item["hypergraph"], meta=item["meta"])
            path = out_dir / f"hypergraph-{i}-{name}.json"
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    if result.name == "witness" and result.payload.get("witness"):
        path = _claim_path(out_dir, f"witness-{stamp}")
        path.write_text(json.dumps(result.payload["witness"], indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
