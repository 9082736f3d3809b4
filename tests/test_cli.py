"""CLI, recipes, experiment runner, cache behavior."""

from __future__ import annotations

import argparse
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from kneserlab import (
    Coloring,
    ExperimentSpec,
    compare_bounds,
    complete_uniform,
    default_compare_pool,
    factor_bounds,
    hnka,
    kneser,
    parse_recipe,
    product_is_proper,
    reduction_check,
    run,
    solve_chromatic,
    star,
    store_coloring,
)
from kneserlab.cache import ResultCache, canonical_json, cached_value, hypergraph_digest
from kneserlab.cli import build_parser, main, spec_from_args
from kneserlab.experiments import TASKS, RecipeError
from conftest import is_first_appearance


class TestRecipes:
    def test_basic_constructions(self):
        assert parse_recipe("complete:5,2") == complete_uniform(5, 2)
        assert parse_recipe("hnka:7,2,3") == hnka(7, 2, 3)
        assert parse_recipe("star:4") == star(4)
        assert parse_recipe("edgeless:3").edge_count == 0

    def test_nested_kneser(self):
        assert parse_recipe("kneser:2:complete:5,2") == kneser(complete_uniform(5, 2), 2)

    def test_t_reduction_recipe(self):
        T = parse_recipe("t:0,2:complete:5,2")
        assert T.n == 5 and T.edge_count == 16

    def test_file_round_trip(self, tmp_path):
        from kneserlab import store_hypergraph

        H = complete_uniform(4, 2)
        path = tmp_path / "h.json"
        path.write_text(store_hypergraph(H))
        assert parse_recipe(f"file:{path}") == H

    def test_boolean_in_file_is_a_bad_recipe(self, tmp_path):
        # and so is a file of the wrong shape
        path = tmp_path / "h.json"
        for text, message in (
            ('{"n": true, "edges": [[1]]}', "expected an integer, got True"),
            ('{"n": 2, "edges": 5}', "expected a list, got 5"),
            ("[]", "expected an object, got []"),
        ):
            path.write_text(text)
            with pytest.raises(RecipeError, match=re.escape(f"bad recipe 'file:{path}': {message}")):
                parse_recipe(f"file:{path}")

    def test_missing_key_in_file_is_a_bad_recipe(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"edges": []}')
        with pytest.raises(RecipeError, match=re.escape(f"bad recipe 'file:{path}': missing key 'n'")):
            parse_recipe(f"file:{path}")

    def test_bad_recipe(self):
        with pytest.raises(RecipeError):
            parse_recipe("nonsense:1")
        with pytest.raises(RecipeError):
            parse_recipe("complete:5")


class TestRun:
    def test_unknown_task_rejected(self):
        spec = ExperimentSpec(recipes=("complete:5,2",), task="nonsense")
        with pytest.raises(ValueError, match="unknown task 'nonsense'"):
            run(spec)

    def test_spec_fields_are_what_run_reads(self):
        """The recipes, the task, the cache settings and each task argument;
        a flag only the CLI reads (--out, --strict) has no field."""
        dests = {
            argparse.ArgumentParser().add_argument(flag, **kwargs).dest
            for task in TASKS.values()
            for flag, kwargs in task.args
        }
        expected = {"recipes", "task", "cache_path", "self_check", *dests}
        assert set(ExperimentSpec._fields) == expected

    def test_missing_r_rejected(self):
        spec = ExperimentSpec(recipes=("complete:5,2",), task="bounds")
        with pytest.raises(ValueError):
            run(spec)

    def test_bounds_task_spec_example(self, tmp_path):
        base = dict(recipes=("hnka:7,2,3",), r=2, cache_path=str(tmp_path / "cache.jsonl"))
        result = run(ExperimentSpec(**base, task="bounds"))
        assert result.status == "ok"
        bounds = result.payload
        assert bounds["factors"][0]["ecd"] == 4
        assert bounds["product_ecd_bound"] == 4
        assert bounds["exact_chi"] == 4
        assert bounds["zhu_status"] == "VERIFIED"
        chrom = run(ExperimentSpec(**base, task="chromatic")).payload
        assert chrom["chi"] == 4

    def test_witness_task(self):
        spec = ExperimentSpec(recipes=("complete:5,2",), task="witness", p=2)
        result = run(spec)
        assert result.status == "ok"
        payload = result.payload
        assert payload["status"] == "FOUND"
        assert payload["target"] == 3
        assert sum(len(part["vertices"]) for part in payload["witness"]["parts"]) == 3

    def test_witness_task_two_factors(self):
        spec = ExperimentSpec(
            recipes=("complete:5,2", "complete:5,2"), task="witness", p=2
        )
        result = run(spec)
        assert result.status == "ok"
        payload = result.payload
        assert payload["status"] == "FOUND" and payload["chi"] == 3
        assert sum(len(part["vertices"]) for part in payload["witness"]["parts"]) == 3
        for part in payload["witness"]["parts"]:
            for vertex in part["vertices"]:
                assert len(vertex) == 2  # one edge index per factor

    def test_prooflab_task_clean(self):
        spec = ExperimentSpec(recipes=("complete:3,2",), task="prooflab", p=2)
        result = run(spec)
        assert result.status == "ok"
        payload = result.payload
        assert payload["lemma1_violations"] == []
        assert payload["lemma2_violations"] == []
        assert payload["dold"]["ok"]

    def test_prooflab_negative_control_fails_run(self):
        spec = ExperimentSpec(
            recipes=("complete:3,2",),
            task="prooflab",
            p=2,
            negative_control=True,
        )
        result = run(spec)
        assert result.status == "violation"
        assert result.payload["lemma1_violations"]

    def test_witness_scans_once(self, monkeypatch):
        import kneserlab.experiments
        import kneserlab.prooflab

        calls = []
        scan = kneserlab.prooflab.sigma2_scan

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(kneserlab.experiments, "sigma2_scan", counted)
        monkeypatch.setattr(kneserlab.prooflab, "sigma2_scan", counted)
        spec = ExperimentSpec(recipes=("complete:5,2",), task="witness", p=2)
        assert run(spec).payload["status"] == "FOUND"
        assert len(calls) == 1

    def test_composite_witness_refused_before_the_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called for a refused p")

        for target in (
            "kneserlab.experiments.solve_product_chromatic",
            "kneserlab.experiments.sigma2_scan",
            "kneserlab.prooflab.sigma2_scan",
        ):
            monkeypatch.setattr(target, forbidden)
        result = run(ExperimentSpec(recipes=("complete:8,2",), task="witness", p=4))
        assert result.status == "failed"
        assert result.payload["error"] == "ValueError: p=4 is not prime; pass force=True to experiment"

    def test_reduce_reads_through_cache(self, tmp_path, monkeypatch):
        spec = ExperimentSpec(
            recipes=("complete:5,2",),
            task="reduce",
            r=2,
            s=2,
            C=1,
            cache_path=str(tmp_path / "c.jsonl"),
        )
        first = run(spec)
        # a cache miss on the second run would now fail the task
        monkeypatch.setattr("kneserlab.experiments.reduction_check", None)
        second = run(spec)
        assert second.status == first.status == "ok"
        assert canonical_json(second.payload) == canonical_json(first.payload)

    @pytest.mark.parametrize(
        "task, recipes",
        [
            ("bounds", ("complete:4,2", "complete:5,2")),
            ("compare", ("cycle:5", "star:4")),
            ("bounds", ("complete:5,2", "complete:4,2")),
        ],
    )
    def test_bounds_and_compare_read_through_cache(self, task, recipes, tmp_path, monkeypatch):
        spec = ExperimentSpec(
            recipes=recipes, task=task, r=2, cache_path=str(tmp_path / "c.jsonl")
        )
        first = run(spec)
        # a cache miss on the second run would now fail the task
        for name in ("_cd", "_ecd", "_alt_min", "solve_chromatic", "solve_product_chromatic"):
            monkeypatch.setattr(f"kneserlab.chromatic.{name}", None)
        second = run(spec)
        assert second.status == first.status == "ok"
        assert canonical_json(second.payload) == canonical_json(first.payload)

    @pytest.mark.parametrize(
        "task, recipes",
        [("witness", ("complete:5,2", "complete:5,2")), ("prooflab", ("complete:5,2",))],
    )
    def test_witness_and_prooflab_read_through_cache(self, task, recipes, tmp_path, monkeypatch):
        spec = ExperimentSpec(
            recipes=recipes, task=task, p=2, cache_path=str(tmp_path / "c.jsonl")
        )
        first = run(spec)
        # the defect minima must now come from the cache
        for name in ("_cd", "_ecd", "_alt_min"):
            monkeypatch.setattr(f"kneserlab.chromatic.{name}", None)
        second = run(spec)
        assert second.status == first.status == "ok"
        assert canonical_json(second.payload) == canonical_json(first.payload)

    def test_bounds_keeps_row_over_vertex_cap(self):
        spec = ExperimentSpec(recipes=("complete:17,2", "complete:4,2"), task="bounds", r=2)
        res = run(spec)
        assert res.status == "ok"
        big, small = res.payload["factors"]
        assert big["kg_chi"] is None and big["ecd"] == 15
        assert small["kg_chi"] == 2
        assert res.payload["exact_chi"] is None
        assert res.payload["zhu_status"] == "BOUND_ONLY"
        (note,) = res.payload["notes"]
        assert note.startswith("complete:17,2 (r=2): chi not computed: ") and "136" in note

    def test_product_chi_keyed_by_every_factor(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(json.dumps(complete_uniform(4, 2).to_json_dict()))
        second.write_text(json.dumps(complete_uniform(5, 2).to_json_dict()))
        spec = ExperimentSpec(
            recipes=(f"file:{first}", f"file:{second}"),
            task="bounds",
            r=2,
            cache_path=str(tmp_path / "c.jsonl"),
        )
        assert run(spec).payload["exact_chi"] == 2
        # KG(3,2) has no edges, so the product is 1-colorable
        second.write_text(json.dumps(complete_uniform(3, 2).to_json_dict()))
        assert run(spec).payload["exact_chi"] == 1

    def test_run_idempotent(self):
        spec = ExperimentSpec(recipes=("star:4",), task="invariants", r=2)
        first = run(spec).payload
        second = run(spec).payload
        assert canonical_json(first) == canonical_json(second)

    def test_exceeds_exit_code_strict(self, capsys):
        argv = ["chromatic", "--r", "2", "--limit", "2", "complete:7,2"]
        assert main(argv) == 0
        assert main([*argv, "--strict"]) == 1

    def test_prooflab_without_a_coloring_exceeds(self, capsys):
        # lemma 2 and the Dold check cannot run when the coloring search stops
        task = run(ExperimentSpec(recipes=("complete:5,2",), task="prooflab", p=2, limit=2))
        assert task.status == "exceeds"
        assert task.payload["lemma1_violations"] == []
        assert task.payload["lemma2_violations"] is None and task.payload["dold"] is None
        argv = ["prooflab", "--p", "2", "--limit", "2", "complete:5,2"]
        assert main(argv) == 0
        assert main([*argv, "--strict"]) == 1


class TestReduction:
    def test_spec_example(self):
        rep = reduction_check(complete_uniform(5, 2), 2, 2, 1)
        assert rep["lhs_ecd_rs"] == 1
        assert rep["ecd_t"] == 0 and rep["rhs"] == 2
        assert rep["holds"]

    def test_large_budget_trivial(self):
        rep = reduction_check(complete_uniform(5, 2), 2, 2, 5)
        assert rep["t_edge_count"] == 0
        assert rep["holds"]

    def test_edgeless(self):
        from kneserlab import Hypergraph

        rep = reduction_check(Hypergraph(4, []), 2, 2, 0)
        assert rep["lhs_ecd_rs"] == 0 and rep["holds"]


class TestCompare:
    def test_star_row(self):
        pool = [("star:4", 2)]
        report = compare_bounds(pool)
        row = report["rows"][0]
        assert (row["cd"], row["ecd"], row["n_minus_alt"]) == (0, 1, 1)

    def test_complete_row(self):
        pool = [("complete:5,2", 2)]
        row = compare_bounds(pool)["rows"][0]
        assert row["cd"] == row["ecd"] == row["n_minus_alt"] == 3

    def test_edgeless_row_zero(self):
        pool = [("edgeless:4", 2)]
        row = compare_bounds(pool)["rows"][0]
        assert row["cd"] == row["ecd"] == row["n_minus_alt"] == 0

    def test_default_pool_has_both_directions(self):
        report = compare_bounds(default_compare_pool())
        for label in report["ecd_side_wins"]:
            row = next(r for r in report["rows"] if f"{r['recipe']} (r={r['r']})" == label)
            assert row["ecd_bound"] > row["alt_bound"]
        for label in report["alt_side_wins"]:
            row = next(r for r in report["rows"] if f"{r['recipe']} (r={r['r']})" == label)
            assert row["alt_bound"] > row["ecd_bound"]
        assert report["ecd_side_wins"], "pool should exhibit an equitable-side win"
        assert report["alt_side_wins"], "pool should exhibit an alternation-side win"

    def test_row_over_vertex_cap_records_why(self):
        pool = [("complete:17,2", 2)]
        report = compare_bounds(pool)
        assert report["rows"][0]["chi"] is None
        (note,) = [n for n in report["notes"] if "chi not computed" in n]
        assert note.startswith("complete:17,2 (r=2): chi not computed: ")
        assert "136" in note

    def test_limit_zero_is_kept(self):
        spec = ExperimentSpec(recipes=("cycle:5",), task="compare", r=2, limit=0)
        (row,) = run(spec).payload["rows"]
        assert row["chi"] == "EXCEEDS(0)"

    def test_self_check_catches_a_wrong_cache_entry(self, tmp_path):
        path = tmp_path / "c.jsonl"
        spec = ExperimentSpec(recipes=("cycle:5",), task="compare", r=2, cache_path=str(path))
        assert run(spec).status == "ok"
        key = ResultCache.make_key(hypergraph_digest(parse_recipe("cycle:5")), "cd", [2])
        # cd is 1 and chi 3: a wrong cd of 2 passes unchecked, one of 99
        # puts cd_bound above chi
        for wrong, unchecked in ((2, "ok"), (99, "violation")):
            ResultCache(path).put(key, wrong)
            assert run(spec).status == unchecked
            checked = run(spec._replace(self_check=True))
            assert checked.status == "failed"
            assert checked.payload["error"].startswith("CacheMismatchError")

    def test_bound_above_chi_is_a_violation(self, capsys, monkeypatch):
        import kneserlab.chromatic

        assert "violations" not in compare_bounds([("cycle:5", 2)])
        search = kneserlab.chromatic._ecd
        monkeypatch.setattr(kneserlab.chromatic, "_ecd", lambda H, r: search(H, r) + 5)
        assert main(["compare", "--r", "2", "cycle:5"]) == 1
        out = capsys.readouterr().out
        (result,) = json.loads(out[out.index("\n[\n") + 1 :])
        assert result["status"] == "violation"
        assert result["payload"]["violations"] == ["cycle:5 (r=2): ecd_bound=6 > chi=3"]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            compare_bounds([])


class TestCache:
    def test_persist_and_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        H = complete_uniform(5, 2)
        cache = ResultCache(path)
        calls = []

        def compute():
            calls.append(1)
            return {"value": 3}

        key_args = (H, "cd", [2])
        assert cached_value(cache, *key_args, compute) == {"value": 3}
        assert cached_value(cache, *key_args, compute) == {"value": 3}
        assert len(calls) == 1
        fresh = ResultCache(path)
        assert cached_value(fresh, *key_args, compute) == {"value": 3}
        assert len(calls) == 1

    def test_self_check_detects_drift(self, tmp_path):
        from kneserlab.cache import CacheMismatchError

        path = tmp_path / "cache.jsonl"
        H = complete_uniform(4, 2)
        cache = ResultCache(path, self_check=True)
        cached_value(cache, H, "op", [], lambda: 1)
        with pytest.raises(CacheMismatchError):
            cached_value(cache, H, "op", [], lambda: 2)

    def test_corrupt_lines_dropped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = ResultCache.make_key("d", "cd", [2])
        path.write_text("not json\n" + json.dumps({"key": key, "value": 7}) + "\n")
        cache = ResultCache(path)
        assert cache.get(key) == 7

    def test_undecodable_line_dropped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        key = ResultCache.make_key("d", "cd", [2])
        path.write_bytes(b"\xff\n" + json.dumps({"key": key, "value": 7}).encode() + b"\n")
        assert ResultCache(path).get(key) == 7
        path.write_bytes(b"\xff")
        assert run(ExperimentSpec(("complete:4,2",), "invariants", r=2, cache_path=str(path))).status == "ok"

    def test_unreadable_cache_fails_the_run(self, tmp_path, capsys):
        assert main(["invariants", "--r", "2", "complete:4,2", "--cache", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        (result,) = json.loads(out[out.index("\n[\n") + 1 :])
        assert result["status"] == "failed"
        assert result["payload"]["error"].startswith("IsADirectoryError")
        assert "IsADirectoryError" in result["payload"]["traceback"]

    def test_other_code_version_is_a_miss(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        H = complete_uniform(4, 2)
        monkeypatch.setattr("kneserlab.cache.CODE_VERSION", "0.0.0-old")
        cached_value(ResultCache(path), H, "cd", [2], lambda: 99)
        monkeypatch.undo()
        cache = ResultCache(path)
        assert cached_value(cache, H, "cd", [2], lambda: 1) == 1
        assert (cache.hits, cache.misses) == (0, 1)

    def test_other_version_lines_not_loaded(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        H = complete_uniform(4, 2)
        monkeypatch.setattr("kneserlab.cache.CODE_VERSION", "0.0.0-old")
        cached_value(ResultCache(path), H, "cd", [2], lambda: 99)
        monkeypatch.undo()
        cached_value(ResultCache(path), H, "cd", [2], lambda: 1)
        written = path.read_bytes()
        assert len(written.splitlines()) == 2
        assert list(ResultCache(path)._entries.values()) == [1]
        assert path.read_bytes() == written

    def test_other_source_digest_is_a_miss(self, tmp_path, monkeypatch):
        # an edited algorithm module changes the source digest, not CODE_VERSION
        path = tmp_path / "cache.jsonl"
        H = complete_uniform(4, 2)
        monkeypatch.setattr("kneserlab.cache._source_digest", lambda: "0" * 64)
        cached_value(ResultCache(path), H, "cd", [2], lambda: 99)
        monkeypatch.undo()
        cache = ResultCache(path)
        assert cached_value(cache, H, "cd", [2], lambda: 1) == 1
        assert (cache.hits, cache.misses) == (0, 1)
        assert cached_value(ResultCache(path), H, "cd", [2], lambda: 2) == 1

    def test_digest_is_structural(self):
        assert hypergraph_digest(complete_uniform(4, 2)) == hypergraph_digest(
            complete_uniform(4, 2)
        )

    def test_bounds_values_traceable_to_cache(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        spec = ExperimentSpec(
            recipes=("hnka:7,2,3",), task="bounds", r=2, cache_path=str(path)
        )
        run(spec)
        ops = {
            json.loads(line)["key"]["op"] for line in path.read_text().splitlines()
        }
        assert {"cd", "ecd", "alt_min", "kg_chi", "product_kg_chi"} <= ops

    def test_alternation_line_keyed_by_r_alone(self, tmp_path):
        # the mode follows from n, so the line keeps r and the bool "exact" only
        path = tmp_path / "cache.jsonl"
        spec = ExperimentSpec(("complete:17,2", "complete:4,2"), "bounds", r=2, cache_path=str(path))
        assert run(spec).status == "ok"
        lines = path.read_text().splitlines()
        digest = hypergraph_digest(complete_uniform(17, 2))
        (alt,) = [
            record
            for record in map(json.loads, lines)
            if record["key"]["op"] == "alt_min" and record["key"]["digest"] == digest
        ]
        assert alt["key"]["params"] == [2]
        assert sorted(alt["value"]) == ["alt", "exact", "sigma"] and alt["value"]["exact"] is False
        for self_check in (False, True):
            warm = run(spec._replace(task="invariants", self_check=self_check))
            assert warm.status == "ok"
            assert [f["alt_status"] for f in warm.payload["factors"]] == ["UPPER_BOUND", "EXACT"]
        assert path.read_text().splitlines() == lines  # both warm runs were served


class TestMainEntry:
    def test_bounds_command(self, capsys, tmp_path):
        code = main(
            [
                "bounds",
                "--r",
                "2",
                "hnka:7,2,3",
                "--out",
                str(tmp_path),
                "--cache",
                str(tmp_path / "cache.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "VERIFIED" in out
        written = list(tmp_path.glob("bounds-*.json"))
        assert written
        report = json.loads(written[0].read_text())
        assert report["results"][0]["payload"]["exact_chi"] == 4

    def test_out_header_records_the_task_parameters(self, capsys, tmp_path):
        path = tmp_path / "lex.json"
        _, coloring = solve_chromatic(kneser(complete_uniform(5, 2), 2))
        path.write_text(store_coloring(coloring))
        witness_dir, bounds_dir = tmp_path / "w", tmp_path / "b"
        argv = ["witness", "--p", "2", "--coloring", str(path), "complete:5,2"]
        assert main([*argv, "--out", str(witness_dir)]) == 0
        assert main(["bounds", "--r", "2", "complete:5,2", "--strict", "--out", str(bounds_dir)]) == 0
        capsys.readouterr()

        def params(out_dir):
            reports = [json.loads(f.read_text()) for f in out_dir.glob("*.json")]
            (header,) = [d["provenance"] for d in reports if "provenance" in d]
            return header["params"]

        assert params(witness_dir) == {"p": 2, "coloring_path": str(path), "force": False}
        assert params(bounds_dir) == {"r": 2}

    def test_out_reports_of_one_second_kept_apart(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("kneserlab.cli.time.strftime", lambda *_: "20240501-120000")
        for _ in range(4):
            assert main(["invariants", "--r", "2", "complete:4,2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(list(tmp_path.glob("invariants-*.json"))) == 4
        assert len(list(tmp_path.glob("invariants-*.txt"))) == 4

    def test_compare_command(self, capsys):
        code = main(["compare"])
        out = capsys.readouterr().out
        assert code == 0
        assert "star:4" in out and "cycle:5" in out

    @pytest.mark.parametrize("recipes", [(), ("complete:7,1",)])
    def test_compare_limit_default_same_everywhere(self, recipes, capsys):
        # chi(KG(complete:7,1)) = chi(K_7) = 7 is just above the default limit
        assert main(["compare", *recipes]) == 0
        out = capsys.readouterr().out
        (result,) = json.loads(out[out.index("\n[\n") + 1 :])
        assert run(ExperimentSpec(recipes, "compare")).payload == result["payload"]
        pool = [(recipe, 2) for recipe in recipes] or default_compare_pool()
        assert compare_bounds(pool) == result["payload"]

    def test_compare_r_applies_to_the_pool(self, capsys):
        assert main(["compare", "--r", "3"]) == 0
        out = capsys.readouterr().out
        (result,) = json.loads(out[out.index("\n[\n") + 1 :])
        rows = result["payload"]["rows"]
        assert [row["recipe"] for row in rows] == [recipe for recipe, _ in default_compare_pool()]
        assert {row["r"] for row in rows} == {3}

    def test_reduce_command(self, capsys):
        code = main(["reduce", "--r", "2", "--s", "2", "--C", "1", "complete:5,2"])
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_failed_task_with_table_reports_failure(self, capsys, tmp_path):
        code = main(["invariants", "--r", "2", f"file:{tmp_path / 'missing.json'}"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[invariants] status=failed" in out
        results = json.loads(out[out.index("\n[\n") + 1 :])
        assert results[0]["status"] == "failed"
        assert "RecipeError" in results[0]["payload"]["error"]
        assert "parse_recipe" in results[0]["payload"]["traceback"]

    @pytest.mark.parametrize(
        "argv",
        [
            # every factor chi is EXCEEDS(1); the product is over the solve cap
            ["bounds", "--r", "2", "--limit", "1", *["complete:8,2"] * 3],
            ["compare", "--limit", "1", "complete:5,2"],
            ["compare", "--limit", "0", "--r", "2", "cycle:5"],
        ],
    )
    def test_exceeds_chi_in_a_row_exceeds(self, argv, capsys):
        assert main(argv) == 0
        assert f"[{argv[0]}] status=exceeds" in capsys.readouterr().out
        assert main([*argv, "--strict"]) == 1

    def test_closed_stdout_keeps_reports_and_exit_code(self, monkeypatch, tmp_path):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        out = ["--out", str(tmp_path)]
        assert main(["invariants", "--r", "2", "complete:5,2", *out]) == 0
        assert main(["bounds", "--r", "2", "--limit", "0", "--strict", "cycle:5", *out]) == 1
        for stem in ("invariants", "bounds"):
            assert len(list(tmp_path.glob(f"{stem}-*.json"))) == 1
            assert len(list(tmp_path.glob(f"{stem}-*.txt"))) == 1

    def test_usage_error_on_missing_param(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "complete:5,2"])
        assert exc.value.code == 2

    def test_out_naming_a_file_is_a_usage_error(self, capsys, monkeypatch, tmp_path):
        ran = []
        monkeypatch.setattr("kneserlab.cli.run", ran.append)
        taken = tmp_path / "f"
        taken.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "--r", "2", "complete:4,2", "--out", str(taken)])
        assert exc.value.code == 2
        assert ran == [] and capsys.readouterr().out == ""

    def test_spec_validated_once(self, capsys, monkeypatch):
        calls = []
        validate = ExperimentSpec.validate
        monkeypatch.setattr(ExperimentSpec, "validate", lambda spec: calls.append(1) or validate(spec))
        assert main(["invariants", "--r", "2", "complete:4,2"]) == 0
        assert calls == [1]
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "--r", "2"])
        assert exc.value.code == 2 and calls == [1, 1]
        assert "no factor recipes given" in capsys.readouterr().err

    def test_refused_spec_removes_only_the_out_dirs_it_made(self, capsys, tmp_path):
        kept = tmp_path / "kept"
        kept.mkdir()
        for out in (tmp_path / "d" / "sub", kept / "sub", kept):
            with pytest.raises(SystemExit) as exc:
                main(["invariants", "--r", "2", "--out", str(out)])
            assert exc.value.code == 2
            assert "no factor recipes given" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert list(kept.iterdir()) == []

    @pytest.mark.parametrize("task", ["bounds", "compare"])
    def test_r_below_two_is_a_usage_error(self, task, capsys):
        with pytest.raises(SystemExit) as exc:
            main([task, "--r", "1", "complete:4,2"])
        assert exc.value.code == 2
        with pytest.raises(ValueError, match="--r"):
            ExperimentSpec(recipes=("complete:4,2",), task=task, r=1).validate()
        ExperimentSpec(recipes=("complete:4,2",), task="invariants", r=1).validate()

    VALID_ARGS = {
        "witness": ["--p", "2"],
        "prooflab": ["--p", "2"],
        "reduce": ["--r", "2", "--s", "2", "--C", "1"],
        "invariants": ["--r", "2"],
        "chromatic": ["--r", "2"],
        "bounds": ["--r", "2"],
        "compare": [],
    }

    @pytest.mark.parametrize(
        "task, flag, value",
        [
            ("witness", "--p", 1),
            ("prooflab", "--p", 1),
            ("witness", "--eta", -1),
            ("reduce", "--s", 1),
            ("reduce", "--C", -1),
            ("reduce", "--r", 0),
            ("invariants", "--r", 0),
            *[(task, "--limit", -1) for task in ("chromatic", "bounds", "witness", "prooflab", "compare")],
        ],
    )
    def test_integer_below_its_domain_is_a_usage_error(self, task, flag, value, capsys):
        argv = [task, *self.VALID_ARGS[task], "complete:5,2"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, str(value)])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid choice" in capsys.readouterr().err
        spec = spec_from_args(build_parser().parse_args(argv))
        with pytest.raises(ValueError, match=f"invalid {flag}"):
            spec._replace(**{flag.lstrip("-"): value}).validate()

    @pytest.mark.parametrize(
        "task, options, flag",
        [
            ("chromatic", {"r": 2.5}, "--r"),
            ("chromatic", {"r": 2, "limit": False}, "--limit"),
            ("invariants", {"r": True}, "--r"),
            ("witness", {"p": 2, "eta": True}, "--eta"),
            ("reduce", {"r": 2, "s": 2, "C": True}, "--C"),
            ("prooflab", {"p": 2, "negative_control": 1}, "--negative-control"),
            ("witness", {"p": 2, "coloring_path": 3}, "--coloring"),
        ],
    )
    def test_option_of_another_type_rejected(self, task, options, flag):
        # a bool is an int to isinstance, and 2.5 passes no domain check;
        # the CLI never builds these, since argparse converts each flag
        with pytest.raises(ValueError, match=flag):
            run(ExperimentSpec(("complete:4,2",), task, **options))

    @pytest.mark.parametrize(
        "fields, name",
        [
            # a str is read recipe by recipe, one character each
            pytest.param({"recipes": "complete:4,2"}, "recipes", id="recipes-str"),
            pytest.param({"recipes": ["complete:4,2"]}, "recipes", id="recipes-list"),
            pytest.param({"recipes": (("complete:4,2",),)}, "recipes", id="recipes-nested"),
            # a non-empty str is true
            pytest.param({"self_check": "no"}, "self_check", id="self-check-str"),
            pytest.param({"self_check": 1}, "self_check", id="self-check-int"),
            # a bare TypeError from the cache, outside the task's failure handling
            pytest.param({"cache_path": 3}, "cache_path", id="cache-path-int"),
        ],
    )
    def test_spec_field_of_another_type_rejected(self, fields, name):
        spec = ExperimentSpec(("complete:4,2",), "chromatic", r=2)._replace(**fields)
        with pytest.raises(ValueError, match=name):
            run(spec)

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["chromatic", "--r", "2", "--limit", "0", "complete:5,2"], "exceeds"),
            (["witness", "--p", "2", "--eta", "0", "complete:5,2"], "ok"),
            (["invariants", "--r", "1", "complete:5,2"], "ok"),
            (["reduce", "--r", "1", "--s", "2", "--C", "0", "complete:5,2"], "ok"),
            # --ground ignores --r, so chromatic leaves it unchecked
            (["chromatic", "--r", "0", "--ground", "complete:4,2"], "ok"),
        ],
    )
    def test_domain_boundaries_still_run(self, argv, status, capsys):
        assert main(argv) == 0
        assert f"[{argv[0]}] status={status}" in capsys.readouterr().out

    def test_build_command(self, capsys):
        code = main(["build", "kneser:2:complete:5,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert '"n": 10' in out

    def test_build_writes_loadable_files(self, capsys, tmp_path):
        code = main(["build", "kneser:2:complete:5,2", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        files = list(tmp_path.glob("hypergraph-*.json"))
        assert len(files) == 1
        assert parse_recipe(f"file:{files[0]}") == kneser(complete_uniform(5, 2), 2)

    @pytest.mark.parametrize("task", ["witness", "prooflab"])
    def test_improper_coloring_file_fails_the_task(self, task, capsys, tmp_path):
        path = tmp_path / "ones.json"
        path.write_text(store_coloring(Coloring((1,) * 10, 1)))
        code = main([task, "--p", "2", "--coloring", str(path), "complete:5,2"])
        out = capsys.readouterr().out
        assert code == 1
        assert f"[{task}] status=failed" in out
        (result,) = json.loads(out[out.index("\n[\n") + 1 :])
        assert result["payload"]["error"] == f"ValueError: coloring {path} is not proper"
        assert "_coloring_for" in result["payload"]["traceback"]

    def test_boolean_color_in_coloring_file_fails_the_task(self, capsys, tmp_path):
        # a proper coloring with color 1 written as true, which used to run
        # and print the witness colors as true; and a file of the wrong shape
        path = tmp_path / "c.json"
        _, coloring = solve_chromatic(kneser(complete_uniform(4, 2), 2))
        colors = [True if c == 1 else c for c in coloring.colors]
        for data, error in (
            ({"colors": colors, "color_count": coloring.color_count}, "expected an integer, got True"),
            ({"colors": 5, "color_count": 2}, "expected a list, got 5"),
        ):
            path.write_text(json.dumps(data))
            code = main(["witness", "--p", "2", "--coloring", str(path), "complete:4,2"])
            out = capsys.readouterr().out
            assert code == 1
            assert "[witness] status=failed" in out
            (result,) = json.loads(out[out.index("\n[\n") + 1 :])
            assert result["payload"]["error"] == f"ValueError: {error}"

    def test_missing_key_in_coloring_file_fails_the_task(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"color_count": 3}')
        code = main(["witness", "--p", "2", "--coloring", str(path), "complete:5,2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[witness] status=failed" in out
        (result,) = json.loads(out[out.index("\n[\n") + 1 :])
        assert result["payload"]["error"] == "ValueError: missing key 'colors'"

    def test_proper_coloring_file_gives_the_solved_payload(self, tmp_path):
        path = tmp_path / "lex.json"
        _, coloring = solve_chromatic(kneser(complete_uniform(5, 2), 2))
        path.write_text(store_coloring(coloring))
        base = dict(recipes=("complete:5,2",), task="witness", p=2)
        solved = run(ExperimentSpec(**base))
        loaded = run(ExperimentSpec(**base, coloring_path=str(path)))
        assert loaded.status == solved.status == "ok"
        assert dict(loaded.payload, chi=3) == solved.payload

    def test_chromatic_first_factor_with_larger_chi(self, capsys):
        # an index-order certificate search runs over a minute on this
        start = time.perf_counter()
        code = main(["chromatic", "--r", "2", "complete:6,2", "complete:5,2"])
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert code == 0
        (result,) = json.loads(out[out.index("\n[\n") + 1 :])
        payload = result["payload"]
        assert payload["chi"] == 3
        kgs = [kneser(complete_uniform(n, 2), 2) for n in (6, 5)]
        assert product_is_proper(kgs, Coloring(tuple(payload["coloring"]), 3))
        assert is_first_appearance(payload["coloring"])

    def test_witness_command_writes_file(self, capsys, tmp_path):
        code = main(["witness", "--p", "2", "complete:5,2", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        # the run report and the witness file, each under its own name
        data = [json.loads(f.read_text()) for f in tmp_path.glob("witness-*.json")]
        assert sorted("provenance" in d for d in data) == [False, True]
        witness = next(d for d in data if "provenance" not in d)
        assert sum(len(part["vertices"]) for part in witness["parts"]) == 3


def _altered(value):
    """A cached JSON value with one number moved by one: the value itself,
    or the alphabetically first integer field of a record."""
    if isinstance(value, dict):
        key = min(k for k, v in value.items() if type(v) is int)
        return {**value, key: value[key] + 1}
    assert type(value) is int, value
    return value + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--r", "2", "complete:5,2"],
        ["bounds", "--r", "2", "complete:5,2", "cycle:5"],
        ["witness", "--p", "2", "complete:5,2"],
        ["prooflab", "--p", "2", "complete:4,2"],
        ["reduce", "--r", "2", "--s", "2", "--C", "1", "complete:5,2"],
        ["compare", "--r", "2", "cycle:5"],
    ],
    ids=lambda argv: argv[0],
)
def test_self_check_reaches_every_lookup(argv, capsys, monkeypatch, tmp_path):
    """Each value the task caches, altered alone, is served to a warm run
    and caught by --self-check."""
    cold = tmp_path / "cold.jsonl"
    assert main([*argv, "--cache", str(cold)]) == 0
    lines = cold.read_text().splitlines()
    assert lines
    served = []
    get = ResultCache.get

    def spy(self, key):
        value = get(self, key)
        served.append((canonical_json(key), value))
        return value

    monkeypatch.setattr(ResultCache, "get", spy)
    for i, line in enumerate(lines):
        record = json.loads(line)
        record["value"] = _altered(record["value"])
        path = tmp_path / f"altered-{i}.jsonl"
        path.write_text("\n".join([*lines[:i], json.dumps(record), *lines[i + 1 :]]) + "\n")
        served.clear()
        main([*argv, "--cache", str(path)])
        assert (canonical_json(record["key"]), record["value"]) in served, record["key"]["op"]
        capsys.readouterr()
        assert main([*argv, "--cache", str(path), "--self-check"]) == 1
        out = capsys.readouterr().out
        (result,) = json.loads(out[out.index("\n[\n") + 1 :])
        assert result["status"] == "failed", record["key"]["op"]
        assert result["payload"]["error"].startswith("CacheMismatchError")


def test_self_check_without_cache_file(capsys, monkeypatch):
    """Without --cache the run keeps its cache in memory, so --self-check
    re-derives the repeated lookups of one run: prooflab reads each factor's
    ecd three times. The drift sits in the plain search under the `ecd`
    memo, and the re-derivation reaches it, so it is caught."""
    import kneserlab.chromatic

    search = kneserlab.chromatic._ecd
    calls = []

    def drifting(H, r):
        calls.append(H)
        return search(H, r) + (len(calls) > 1)

    monkeypatch.setattr(kneserlab.chromatic, "_ecd", drifting)
    assert main(["prooflab", "--p", "2", "complete:5,2", "--self-check"]) == 1
    out = capsys.readouterr().out
    (result,) = json.loads(out[out.index("\n[\n") + 1 :])
    assert result["status"] == "failed"
    assert result["payload"]["error"].startswith("CacheMismatchError")
    assert len(calls) == 2


def test_reduce_self_check_rederives(capsys, monkeypatch):
    """`reduction_check` and `t_hypergraph` derive through the plain search,
    not the `ecd` memo: the second factor's lookup is a hit, and its
    re-derivation reaches a search that drifts from its second call on."""
    import kneserlab.constructions
    import kneserlab.experiments
    from kneserlab import invariants

    seen = set()

    def drifting(H, r):
        again = (H, r) in seen
        seen.add((H, r))
        return invariants._ecd(H, r) + again

    for module in (kneserlab.constructions, kneserlab.experiments):
        monkeypatch.setattr(module, "_ecd", drifting)
    before = invariants.ecd.cache_info()[:2]
    argv = ["reduce", "--r", "2", "--s", "2", "--C", "1", "complete:5,2", "complete:5,2"]
    assert main([*argv, "--self-check"]) == 1
    out = capsys.readouterr().out
    (result,) = json.loads(out[out.index("\n[\n") + 1 :])
    assert result["status"] == "failed"
    assert result["payload"]["error"].startswith("CacheMismatchError")
    assert invariants.ecd.cache_info()[:2] == before


def test_self_check_bypasses_the_memos():
    """The bounds path derives through the plain searches: a self-checking
    cache re-derives every hit, and a memo would hand back the first value."""
    from kneserlab import invariants

    memos = (invariants.cd, invariants.ecd, invariants.alt_min)
    before = [m.cache_info()[:2] for m in memos]
    cache = ResultCache(self_check=True)
    first = factor_bounds(complete_uniform(6, 2), 2, cache)
    assert factor_bounds(complete_uniform(6, 2), 2, cache) == first
    assert cache.hits == 3
    assert [m.cache_info()[:2] for m in memos] == before


def test_prooflab_refuses_composite_p(capsys):
    assert main(["prooflab", "--p", "4", "complete:4,2"]) == 1
    out = capsys.readouterr().out
    (result,) = json.loads(out[out.index("\n[\n") + 1 :])
    assert result["status"] == "failed"
    assert "prime" in result["payload"]["error"]


def readme_session() -> list[list[str]]:
    """The argument lists of the ``kneserlab ...`` lines in the README's
    "Command line" section, with their trailing comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in section.splitlines()
        if line.startswith("kneserlab ")
    ]


def test_readme_session_cold_then_warm(capsys, tmp_path):
    session = readme_session()
    assert len(session) >= 10
    cache = str(tmp_path / "cache.jsonl")
    runs = {}
    for phase in ("cold", "warm"):
        for argv in session:
            code = main([*argv, "--cache", cache])
            out = capsys.readouterr().out
            results = [
                {k: v for k, v in r.items() if k != "wall_time_s"}
                for r in json.loads(out[out.index("\n[\n") + 1 :])
            ]
            assert code == (1 if "--negative-control" in argv else 0), argv
            runs.setdefault(" ".join(argv), []).append(results)
    assert all(cold == warm for cold, warm in runs.values())

    def payload(line):
        return runs[line][0][0]["payload"]

    assert payload("build kneser:2:complete:5,2")["hypergraphs"][0]["hypergraph"]["n"] == 10
    assert payload("chromatic --r 2 hnka:7,2,3")["chi"] == 4
    witness = payload("witness --p 2 complete:5,2")["witness"]
    assert sum(len(part["vertices"]) for part in witness["parts"]) == 3
    compare = payload("compare")
    assert "star:6 (r=3)" in compare["ecd_side_wins"]
    assert "cycle:5 (r=2)" in compare["alt_side_wins"]
