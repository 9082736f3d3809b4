"""The CLI's outputs, pinned: every command of `COMMANDS` runs in-process
through `cli.main`, cold, then warm on one cache, then warm again with
``--self-check`` (every cache hit re-derived and compared), and must
reproduce the exit code, text and JSON results recorded in
``golden/cli.json``. A usage error (argparse's exit 2) is recorded as its
exit code and stderr instead.

``python tests/regen_golden.py`` rewrites that file; the suite never does.
A change to it is an intended output change of the commands that differ.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
from pathlib import Path
from unittest import mock

from kneserlab.cli import main
from kneserlab.experiments import TASKS

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

# the input files, written to the working directory: the ``file:`` recipe's
# hypergraph, and a proper and an improper coloring of the Petersen graph
FILE_NAME = "g6.json"
INPUT_FILES = {
    FILE_NAME: {"n": 6, "edges": [[2, 4], [3, 6], [4, 6], [1, 4, 5], [3, 4, 6], [1, 2, 4, 6]]},
    "petersen.json": {"colors": [1, 1, 1, 1, 2, 2, 2, 3, 3, 3], "color_count": 3},
    "improper.json": {"colors": [1, 1, 1, 1, 2, 2, 2, 2, 2, 2], "color_count": 2},
}

COMMANDS = (
    # the README session of the benchmark's lab_cli workload
    "build kneser:2:complete:5,2",
    "invariants --r 2 hnka:7,2,3",
    "invariants --r 2 complete:6,2",
    f"invariants --r 3 file:{FILE_NAME}",
    "chromatic --r 2 hnka:7,2,3",
    "chromatic --r 2 complete:6,2",
    "chromatic --r 2 complete:5,2 complete:5,2",
    "bounds --r 2 hnka:7,2,3",
    "witness --p 2 complete:5,2",
    "witness --p 2 complete:5,2 complete:5,2",
    "witness --p 2 complete:6,2 complete:6,2",
    "prooflab --p 2 complete:5,2",
    "prooflab --p 2 complete:3,2 --negative-control",
    "prooflab --p 3 complete:5,2",
    "reduce --r 2 --s 2 --C 1 complete:5,2",
    "reduce --r 2 --s 2 --C 1 complete:11,2",
    "compare",
    # limits, strictness, caps, refusals and failures
    "chromatic --r 2 --limit 2 complete:7,2",
    "chromatic --r 2 --limit 2 complete:7,2 --strict",
    "chromatic --r 0 --ground complete:4,2",
    "bounds --r 2 complete:17,2 complete:4,2",
    "witness --p 4 --force complete:8,2",
    "prooflab --p 4 complete:4,2",
    "prooflab --p 2 --limit 2 complete:5,2",
    "prooflab --p 2 edgeless:0 complete:4,2",
    "compare --r 2 cycle:5 star:4",
    "invariants --r 2 nonsense:1",
    # the alternation walk with a falling incumbent, and a larger scan
    "invariants --r 2 cycle:8",
    "witness --p 3 complete:9,2",
    # symmetric inputs the walk settles by reversal and twin swaps
    "invariants --r 3 star:9",
    "invariants --r 2 complete:8,3",
    # twin-free: only reversal and the kept vectors cut the walk
    "invariants --r 2 cycle:9",
    "invariants --r 3 cycle:9",
    # the task options no command above sets
    "bounds --r 2 --limit 2 complete:6,2",
    "witness --p 2 --eta 2 complete:5,2",
    "witness --p 2 --coloring petersen.json complete:5,2",
    "witness --p 2 --coloring improper.json complete:5,2",
    "witness --p 2 --limit 2 complete:6,2",
    "prooflab --p 2 --coloring petersen.json complete:5,2",
    "compare --limit 2 cycle:5",
    # products first-fit on the first factor and lifted: chi = 2 with no box
    # table, a factor with an isolated vertex, and the singleton-edge fallback
    "chromatic --r 3 complete:7,2 complete:7,2",
    "chromatic --r 2 complete:5,2 hnka:5,2,3",
    "chromatic --r 0 --ground complete:3,1 complete:4,2",
    # a refuted level below chi that is most of the solve: KG(10,2)'s level 7
    "chromatic --r 2 complete:10,2",
    # a SAT level whose lex refinement re-derives a nogood at most dead ends
    "chromatic --r 2 complete:7,2 complete:6,2",
    # a product that bound_report solves: no factor is over the vertex cap
    "bounds --r 2 complete:5,2 complete:6,2",
    # a two-factor lemma sweep, whose chain check reads covering pairs only,
    # and a three-sign scan whose product blocks are bounded before reading
    "prooflab --p 2 complete:5,2 complete:4,2",
    "witness --p 3 complete:7,2 complete:7,2",
    # r = 3 levels where one assignment forbids nothing: KG^3(10,2)'s refuted
    # level 3, and an H(n,k,a) with 2k <= a <= rk-2, whose chi = 4 is above
    # every defect bound (3)
    "chromatic --r 3 complete:10,2",
    "chromatic --r 3 hnka:11,2,4",
    # the two builders that skip the checking constructor: an r = 3 Kneser
    # edge order, and the induced subhypergraphs behind T's edge list
    "build kneser:3:complete:6,2",
    "build t:1,2:complete:6,2",
    # usage errors: a value out of range, a missing option, an option the task lacks
    "prooflab --p 1 complete:3,2",
    "witness complete:5,2",
    "invariants --r 2 --mode fast complete:4,2",
)


def capture(command: str, cache: str, *flags: str) -> dict:
    """One command's exit code, its printed text without the timestamped
    first line, and its JSON results without ``wall_time_s`` and
    ``traceback``; or, for a usage error, its exit code and stderr lines,
    wrapped at a fixed width. ``flags`` are added to the command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main([*shlex.split(command), "--cache", cache, *flags])
        except SystemExit as exc:
            return {"command": command, "exit": exc.code, "stderr": err.getvalue().splitlines()}
    lines = out.getvalue().splitlines()[1:]
    start = lines.index("[")
    results = json.loads("\n".join(lines[start:]))
    for result in results:
        del result["wall_time_s"]
        result["payload"].pop("traceback", None)
    return {"command": command, "exit": code, "text": lines[:start], "results": results}


def write_input_files(directory: Path) -> None:
    for name, data in INPUT_FILES.items():
        (directory / name).write_text(json.dumps(data) + "\n")


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_input_files(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    assert [g["command"] for g in golden] == list(COMMANDS)
    for phase, flags in (("cold", ()), ("warm", ()), ("self-check", ("--self-check",))):
        for expected in golden:
            got = capture(expected["command"], "cache.jsonl", *flags)
            assert got == expected, (phase, expected["command"])


def test_every_task_option_is_pinned():
    """Each flag of each task is set by some golden command of that task
    that runs (a usage error, exit 2, does not count)."""
    ran = [shlex.split(g["command"]) for g in json.loads(GOLDEN.read_text()) if g["exit"] != 2]
    unpinned = [
        f"{name} {flag}"
        for name, task in TASKS.items()
        for flag, _ in task.args
        if not any(words[0] == name and flag in words for words in ran)
    ]
    assert unpinned == []
