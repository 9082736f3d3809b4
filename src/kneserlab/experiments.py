"""Experiment orchestration: factor recipes, the task table, reduction and
bound-comparison reports.

Each task is declared once, in `TASKS`: its help text, its command-line
arguments, its run function and its text table. `ExperimentSpec.validate`,
`run`, the CLI parser and the CLI tables are all driven by that table; the
CLI is a thin wrapper around `run`.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Sequence
from pathlib import Path

from .cache import CODE_VERSION, ResultCache, cached_value
from .chromatic import (
    FactorBounds,
    bound_report,
    factor_bounds,
    factor_row,
    solve_product_chromatic,
)
from .constructions import (
    complete_uniform,
    cycle,
    edgeless,
    hnka,
    kneser,
    product_is_proper,
    star,
    t_hypergraph,
)
from .hypergraph import (
    Coloring,
    Hypergraph,
    load_coloring,
    load_hypergraph,
)
from .invariants import _ecd
from .prooflab import (
    SignMapTables,
    _refuse_composite,
    check_lemma1,
    check_lemma2,
    dold_consequence,
    find_witness,
    is_prime,
    misses_guarantee,
    sigma2_scan,
    witness_target,
)

COMPARE_LIMIT = 6  # compare's default solver limit, with or without the CLI


class AtLeast:
    """``choices`` holding the integers from ``low`` on; argparse and
    `ExperimentSpec.validate` list them as the one entry ">=low"."""

    __slots__ = ("low",)

    def __init__(self, low: int) -> None:
        object.__setattr__(self, "low", low)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AtLeast is immutable")

    def __contains__(self, value) -> bool:
        return isinstance(value, int) and value >= self.low

    def __iter__(self):
        yield f">={self.low}"


# --- recipes -------------------------------------------------------------------


class RecipeError(ValueError):
    """A factor recipe string cannot be resolved to a construction."""


def parse_recipe(text: str) -> Hypergraph:
    """Build a hypergraph from a compact recipe string.

    Grammar: ``complete:N,K`` | ``hnka:N,K,A`` | ``star:N`` | ``cycle:N`` |
    ``edgeless:N`` | ``file:PATH`` | ``kneser:R:<recipe>`` | ``t:C,S:<recipe>``.
    """
    head, _, rest = text.partition(":")
    try:
        if head == "complete":
            n, k = (int(x) for x in rest.split(","))
            return complete_uniform(n, k)
        if head == "hnka":
            n, k, a = (int(x) for x in rest.split(","))
            return hnka(n, k, a)
        if head == "star":
            return star(int(rest))
        if head == "cycle":
            return cycle(int(rest))
        if head == "edgeless":
            return edgeless(int(rest))
        if head == "file":
            return load_hypergraph(Path(rest).read_text())
        if head == "kneser":
            r_text, _, inner = rest.partition(":")
            return kneser(parse_recipe(inner), int(r_text))
        if head == "t":
            params, _, inner = rest.partition(":")
            c_text, s_text = params.split(",")
            return t_hypergraph(parse_recipe(inner), int(c_text), int(s_text))
    except RecipeError:
        raise
    except (ValueError, OSError, KeyError) as exc:
        raise RecipeError(f"bad recipe {text!r}: {exc}") from exc
    raise RecipeError(f"unknown recipe head {head!r} in {text!r}")


# --- experiment specs ------------------------------------------------------------


class ExperimentSpec(namedtuple(
    "ExperimentSpec",
    "recipes task r p limit s C eta coloring_path force negative_control self_check ground cache_path",
    defaults=(None, None, None, None, None, None, None, False, False, False, False, None),
)):
    """One task over one list of factor recipes: ``recipes`` is a tuple of
    recipe strings and ``task`` a `TASKS` key. The ints ``r``, ``p``,
    ``limit``, ``s``, ``C``, ``eta`` and the strs ``coloring_path`` and
    ``cache_path`` are None when unset; ``force``, ``negative_control``,
    ``self_check`` and ``ground`` are bools, False by default. Whether
    alternation is exact follows from each factor's n (`factor_bounds`)."""

    __slots__ = ()

    def validate(self) -> None:
        task = TASKS.get(self.task)
        if task is None:
            raise ValueError(f"unknown task {self.task!r}")
        if type(self.recipes) is not tuple or not all(type(rc) is str for rc in self.recipes):
            raise ValueError(f"recipes must be a tuple of str, not {self.recipes!r}")
        if type(self.self_check) is not bool:
            raise ValueError(f"self_check must be bool, not {self.self_check!r}")
        if self.cache_path is not None and type(self.cache_path) is not str:
            raise ValueError(f"cache_path must be None or str, not {self.cache_path!r}")
        if task.needs_recipes and not self.recipes:
            raise ValueError("no factor recipes given")
        for flag, kwargs in task.args:
            value = getattr(self, kwargs.get("dest", flag.lstrip("-").replace("-", "_")))
            want = kwargs.get("type", bool if kwargs.get("action") == "store_true" else str)
            if value is None:
                if kwargs.get("required"):
                    raise ValueError(f"task {self.task!r} needs {flag}")
            elif type(value) is not want:
                raise ValueError(f"task {self.task!r}: {flag} must be {want.__name__}, not {value!r}")
            elif "choices" in kwargs and value not in kwargs["choices"]:
                allowed = ", ".join(map(str, kwargs["choices"]))
                raise ValueError(f"task {self.task!r}: invalid {flag} {value!r} (choose from {allowed})")


class TaskResult(namedtuple("TaskResult", "name status payload wall_time", defaults=(0.0,))):
    """One run's outcome: the task ``name``, its ``status`` (ok | exceeds |
    violation | failed), the ``payload`` dict and the float ``wall_time``
    in seconds."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "task": self.name,
            "status": self.status,
            "wall_time_s": round(self.wall_time, 3),
            "payload": self.payload,
        }


# --- reduction and comparison reports ----------------------------------------------


def reduction_check(H: Hypergraph, r: int, s: int, C: int) -> dict:
    """Both sides of the composite-modulus defect reduction
    ecd^{rs}(H) <= r (s-1) C + ecd^r(T) for the induced-defect hypergraph T,
    as the `reduce` report: ``lhs_ecd_rs`` and ``rhs``, with ``ecd_t`` =
    ecd^r(T), ``t_edge_count`` = |E(T)| and ``holds``. Both sides are
    derived by the plain search, not the `ecd` memo, so a self-checking
    cache re-derives them."""
    lhs = _ecd(H, r * s)
    T = t_hypergraph(H, C, s)
    ecd_t = _ecd(T, r)
    rhs = r * (s - 1) * C + ecd_t
    return dict(
        r=r, s=s, C=C, lhs_ecd_rs=lhs, rhs=rhs, ecd_t=ecd_t, t_edge_count=T.edge_count, holds=lhs <= rhs
    )


def default_compare_pool() -> list[tuple[str, int]]:
    """The shipped pool of (recipe, r) pairs: instances where each defect
    bound is known to win somewhere (the star with r=3 for the equitable
    side, the 5-cycle for the alternation side), plus reference rows."""
    return [
        ("star:4", 2),
        ("star:6", 3),
        ("cycle:5", 2),
        ("complete:5,2", 2),
        ("complete:6,2", 2),
        ("hnka:7,2,3", 2),
        ("complete:7,2", 3),
        ("edgeless:4", 2),
    ]


def _chi_note(recipe: str, f: FactorBounds) -> str:
    return f"{recipe} (r={f.r}): chi not computed: {f.kg_chi_error}"


def compare_bounds(
    pool: Sequence[tuple[str, int]],
    cache: ResultCache | None = None,
    limit: int | None = COMPARE_LIMIT,
) -> dict:
    """The `compare` report. Its ``rows`` hold one dict per (recipe, r) pair
    of the pool with every defect quantity, both aggregate bounds, and exact
    chi of its general Kneser hypergraph when the solver finishes under the
    limit. ``ecd_side_wins`` and ``alt_side_wins`` list the rows where
    ecd_bound > alt_bound and where alt_bound > ecd_bound, beside the
    ``notes``; ``violations``, present only when there are some, lists the
    bounds above their row's chi."""
    if not pool:
        raise ValueError("empty comparison pool")
    rows: list[dict] = []
    notes: list[str] = []
    violations: list[str] = []
    for recipe, r in pool:
        f = factor_row(parse_recipe(recipe), r, limit, cache)
        row = {
            "recipe": recipe,
            "r": r,
            "n": f.n,
            "cd": f.cd,
            "ecd": f.ecd,
            "n_minus_alt": f.n_minus_alt,
            "cd_bound": f.cd_bound,
            "ecd_bound": f.ecd_bound,
            "alt_bound": f.alt_bound,
            "ecd_gap": f.ecd - f.n_minus_alt,
            "chi": f.kg_chi,
        }
        rows.append(row)
        if f.kg_chi_error:
            notes.append(_chi_note(recipe, f))
        violations.extend(f"{recipe} (r={r}): {problem}" for problem in f.check())

    def wins(a: str, b: str) -> list[str]:
        return [f"{row['recipe']} (r={row['r']})" for row in rows if row[a] > row[b]]

    ecd_side, alt_side = wins("ecd_bound", "alt_bound"), wins("alt_bound", "ecd_bound")
    if not ecd_side:
        notes.append("no pool instance has ecd_bound > alt_bound")
    if not alt_side:
        notes.append("no pool instance has alt_bound > ecd_bound")
    report = {"rows": rows, "ecd_side_wins": ecd_side, "alt_side_wins": alt_side, "notes": notes}
    if violations:
        report["violations"] = violations
    return report


# --- text tables ---------------------------------------------------------------------


def format_table(columns: dict[str, str], rows: Sequence[dict]) -> str:
    """Left-aligned text table; ``columns`` maps each header to the row key
    it shows, and a None value shows as "-"."""
    headers = list(columns)
    cells = [["-" if row[k] is None else str(row[k]) for k in columns.values()] for row in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(row):
        return "  ".join(s.ljust(w) for s, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


_DEFECT_COLUMNS = {"cd": "cd", "ecd": "ecd", "n-alt": "n_minus_alt"}
_BOUND_COLUMNS = {"cd_bound": "cd_bound", "ecd_bound": "ecd_bound", "alt_bound": "alt_bound"}


# --- tasks ---------------------------------------------------------------------------

TaskOutcome = tuple[str, dict]  # (ok | exceeds | violation, payload)


def _status(chis) -> str:
    """``exceeds`` when any reported chi, in its JSON form, hit its limit."""
    return "exceeds" if any(str(chi).startswith("EXCEEDS") for chi in chis) else "ok"


def _coloring_for(
    path: str | None, limit: int | None, kgs: list[Hypergraph]
) -> tuple[Coloring | None, int | str | None]:
    if path is not None:
        coloring = load_coloring(Path(path).read_text())
        if not product_is_proper(kgs, coloring):
            raise ValueError(f"coloring {path} is not proper")
        return coloring, None
    value, coloring = solve_product_chromatic(kgs, limit)
    return coloring, value.to_json()


def _build(spec: ExperimentSpec, factors: list[Hypergraph], cache) -> TaskOutcome:
    return "ok", {
        "hypergraphs": [
            {
                "recipe": recipe,
                "hypergraph": H.to_json_dict(),
                "meta": {"recipe": recipe, "version": CODE_VERSION},
            }
            for recipe, H in zip(spec.recipes, factors)
        ]
    }


def _invariants(spec: ExperimentSpec, factors: list[Hypergraph], cache) -> TaskOutcome:
    rows = []
    for H, recipe in zip(factors, spec.recipes):
        f = factor_bounds(H, spec.r, cache)
        rows.append(
            {
                "recipe": recipe,
                "n": f.n,
                "edges": H.edge_count,
                "cd": f.cd,
                "ecd": f.ecd,
                "alt": f.n - f.n_minus_alt,
                "n_minus_alt": f.n_minus_alt,
                "alt_status": "EXACT" if f.alt_exact else "UPPER_BOUND",
            }
        )
    return "ok", {"r": spec.r, "factors": rows}


def _invariants_table(payload: dict) -> str:
    columns = {"recipe": "recipe", "n": "n", "edges": "edges", **_DEFECT_COLUMNS, "alt": "alt_status"}
    return format_table(columns, payload["factors"])


def _chromatic(spec: ExperimentSpec, factors: list[Hypergraph], cache) -> TaskOutcome:
    targets = factors if spec.ground else [kneser(H, spec.r) for H in factors]
    value, coloring = solve_product_chromatic(targets, spec.limit)
    payload = {
        "r": spec.r,
        "ground": spec.ground,
        "chi": value.to_json(),
        "coloring": list(coloring.colors) if coloring else None,
        "color_count": coloring.color_count if coloring else None,
    }
    return _status([payload["chi"]]), payload


def _bounds(spec: ExperimentSpec, factors: list[Hypergraph], cache) -> TaskOutcome:
    report = bound_report(factors, spec.r, spec.limit, cache)
    problems = report.check()
    payload = report.to_json_dict()
    payload["recipes"] = list(spec.recipes)
    notes = [_chi_note(recipe, f) for recipe, f in zip(spec.recipes, report.factors) if f.kg_chi_error]
    if notes:
        payload["notes"] = notes
    if problems:
        payload["violations"] = problems
        return "violation", payload
    return _status([payload["exact_chi"], *(f["kg_chi"] for f in payload["factors"])]), payload


def _bounds_table(payload: dict) -> str:
    columns = {"recipe": "recipe", "n": "n", **_DEFECT_COLUMNS, **_BOUND_COLUMNS, "chi(KG^r)": "kg_chi"}
    rows = [dict(f, recipe=recipe) for recipe, f in zip(payload["recipes"], payload["factors"])]
    table = format_table(columns, rows)
    footer = (
        f"product_ecd_bound={payload['product_ecd_bound']}  "
        f"product_alt_bound={payload['product_alt_bound']}  "
        f"exact_chi={payload['exact_chi']}  zhu={payload['zhu_status']}"
    )
    return "\n".join([table, footer, *(f"note: {note}" for note in payload.get("notes", []))])


def _witness(spec: ExperimentSpec, factors: list[Hypergraph], cache) -> TaskOutcome:
    p = spec.p
    _refuse_composite(p, spec.force)  # before the solve
    coloring, chi = _coloring_for(spec.coloring_path, spec.limit, [kneser(H, p) for H in factors])
    payload = {"p": p, "chi": chi}
    if coloring is None:
        return "exceeds", dict(payload, witness=None)

    target = witness_target(factors, p, cache) if spec.eta is None else spec.eta
    scan = sigma2_scan(factors, p, coloring)
    witness = find_witness(factors, p, coloring, target, force=spec.force, scan=scan)
    payload.update(
        target=target,
        max_ell=scan.max_ell,
        witness=witness.to_json_dict() if witness else None,
    )
    if witness is None:
        # a miss within the guarantee of a prime p is a bug; with --eta the
        # guarantee is computed only now
        guarantee = target if spec.eta is None else witness_target(factors, p, cache)
        bad = is_prime(p) and misses_guarantee(p, target, guarantee, scan.max_ell, scan.saturated_count)
        payload["status"] = "NOT_FOUND"
        return ("violation" if bad else "ok"), payload
    problems = witness.problems(factors, coloring)
    if problems:
        payload["violations"] = problems
        return "violation", payload
    payload["status"] = "EXPERIMENTAL" if witness.experimental else "FOUND"
    return "ok", payload


def _prooflab(spec: ExperimentSpec, factors: list[Hypergraph], cache) -> TaskOutcome:
    p = spec.p
    corrupt = ("signsets", "simplex") if spec.negative_control else ()
    tables = SignMapTables(p, corrupt=corrupt)
    lemma1 = check_lemma1(factors, p, tables, cache=cache)
    coloring, _ = _coloring_for(spec.coloring_path, spec.limit, [kneser(H, p) for H in factors])
    lemma2 = None
    dold = None
    if coloring is not None:
        lemma2 = check_lemma2(factors, p, coloring, tables, cache=cache)
        dold = dold_consequence(factors, p, coloring, cache)
    payload = {
        "p": p,
        "negative_control": spec.negative_control,
        "lemma1_violations": [v.to_json_dict() for v in lemma1],
        "lemma2_violations": None if lemma2 is None else [v.to_json_dict() for v in lemma2],
        "dold": dold,
    }
    if lemma1 or lemma2 or (dold is not None and not dold["ok"]):
        return "violation", payload
    return ("exceeds" if coloring is None else "ok"), payload


def _reduce(spec: ExperimentSpec, factors: list[Hypergraph], cache) -> TaskOutcome:
    reports = [
        dict(
            recipe=recipe,
            **cached_value(
                cache,
                H,
                "reduce",
                [spec.r, spec.s, spec.C],
                lambda: reduction_check(H, spec.r, spec.s, spec.C),
            ),
        )
        for recipe, H in zip(spec.recipes, factors)
    ]
    bad = not all(rep["holds"] for rep in reports)
    return ("violation" if bad else "ok"), {"reports": reports}


def _reduce_table(payload: dict) -> str:
    columns = {"recipe": "recipe", "r": "r", "s": "s", "C": "C", "lhs": "lhs_ecd_rs", "rhs": "rhs"}
    return format_table({**columns, "|E(T)|": "t_edge_count", "holds": "holds"}, payload["reports"])


def _compare(spec: ExperimentSpec, factors: list[Hypergraph], cache) -> TaskOutcome:
    pool = [(recipe, 2) for recipe in spec.recipes] or default_compare_pool()
    pool = [(recipe, spec.r or r) for recipe, r in pool]
    payload = compare_bounds(pool, cache, COMPARE_LIMIT if spec.limit is None else spec.limit)
    if "violations" in payload:
        return "violation", payload
    return _status(row["chi"] for row in payload["rows"]), payload


def _compare_table(payload: dict) -> str:
    columns = {"recipe": "recipe", "r": "r", "n": "n", **_DEFECT_COLUMNS, **_BOUND_COLUMNS}
    lines = [
        format_table({**columns, "chi": "chi", "ecd-(n-alt)": "ecd_gap"}, payload["rows"]),
        f"ecd bound strictly wins on: {payload['ecd_side_wins'] or 'none'}",
        f"alt bound strictly wins on: {payload['alt_side_wins'] or 'none'}",
    ]
    lines.extend(f"note: {note}" for note in payload["notes"])
    return "\n".join(lines)


class Task(namedtuple("Task", "help args run table needs_recipes", defaults=(None, True))):
    """One experiment task. ``help`` is its help text; ``args`` are argparse
    ``(flag, kwargs)`` pairs whose destinations are `ExperimentSpec` fields;
    ``run`` maps (spec, parsed factors, cache) to (status, payload);
    ``table`` (or None) renders a payload as text; ``needs_recipes`` is
    False for a task that runs without factor recipes."""

    __slots__ = ()


def _at_least(flag: str, low: int, **kwargs) -> tuple[str, dict]:
    """An integer argument whose domain is the integers from ``low`` on."""
    return flag, {"type": int, "choices": AtLeast(low), **kwargs}


_R_ANY = ("--r", {"type": int, "required": True})  # chromatic --ground ignores it
_R = _at_least("--r", 1, required=True)
# the defect bounds divide by r - 1
_R_BOUNDS = _at_least("--r", 2, required=True)
_P = _at_least("--p", 2, required=True)
_LIMIT = _at_least("--limit", 0)
_COLORING = (
    "--coloring",
    {"dest": "coloring_path", "metavar": "PATH", "help": "coloring JSON (default: solve optimal)"},
)

TASKS: dict[str, Task] = {
    "build": Task("construct hypergraphs and write their JSON", (), _build),
    "invariants": Task("cd / ecd / alternation per factor", (_R,), _invariants, _invariants_table),
    "chromatic": Task(
        "exact chi of the product of KG^r(factors)",
        (_R_ANY, _LIMIT, ("--ground", {"action": "store_true", "help": "color the factors themselves"})),
        _chromatic,
    ),
    "bounds": Task(
        "defect lower bounds and Zhu verification", (_R_BOUNDS, _LIMIT), _bounds, _bounds_table
    ),
    "witness": Task(
        "colorful balanced complete p-partite witness",
        (
            _P,
            _at_least("--eta", 0, help="witness size (default: guaranteed size)"),
            _COLORING,
            _LIMIT,
            ("--force", {"action": "store_true", "help": "allow non-prime p (experimental)"}),
        ),
        _witness,
    ),
    "prooflab": Task(
        "exhaustive labeling consistency checks",
        (
            _P,
            _COLORING,
            _LIMIT,
            (
                "--negative-control",
                {"action": "store_true", "help": "corrupt the sign tables; violations are then expected"},
            ),
        ),
        _prooflab,
    ),
    "reduce": Task(
        "composite-modulus defect reduction check",
        (_R, _at_least("--s", 2, required=True), _at_least("--C", 0, required=True)),
        _reduce,
        _reduce_table,
    ),
    "compare": Task(
        "side-by-side defect bound table",
        (
            _at_least("--r", 2, help="r for every row (default: 2, or the shipped pool's own r)"),
            _at_least("--limit", 0, default=COMPARE_LIMIT),
        ),
        _compare,
        _compare_table,
        needs_recipes=False,
    ),
}


def run(spec: ExperimentSpec) -> TaskResult:
    """Validate the spec, then run its task against one cache (loaded from
    and appended to ``spec.cache_path`` when it is set, else in memory for
    the run). An invalid spec raises ValueError before anything runs; a
    cache that cannot be read or a task that raises ends ``failed`` with
    its error and traceback."""
    spec.validate()
    start = time.perf_counter()
    try:
        cache = ResultCache(spec.cache_path, spec.self_check)
        factors = [parse_recipe(recipe) for recipe in spec.recipes]
        status, payload = TASKS[spec.task].run(spec, factors, cache)
    except Exception as exc:  # failure is a first-class outcome
        import traceback  # only a failed run pays for its import

        status = "failed"
        payload = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
    return TaskResult(spec.task, status, payload, time.perf_counter() - start)
