"""CLI smoke tests: ``python -m repro`` end to end in a subprocess."""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def repro_cli(*args, cwd):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestCliSmoke:
    def test_run_report_resume_round_trip(self, tmp_path):
        run = repro_cli(
            "run", "--spec", "minimum", "--grid", "0:3", "--trials", "2",
            "--seed", "5", "--workers", "2", "--out", "camp", "--quiet", "--json",
            cwd=tmp_path,
        )
        assert run.returncode == 0, run.stderr
        summary = json.loads(run.stdout)
        assert summary["total_cells"] == 9
        assert summary["errors"] == 0
        assert summary["correct_rate"] == 1.0
        assert summary["provenance"]["executed"] == 9
        assert (tmp_path / "camp" / "manifest.json").exists()
        assert (tmp_path / "camp" / "results.jsonl").exists()
        assert (tmp_path / "camp" / "summary.json").exists()

        report = repro_cli("report", "camp", "--json", cwd=tmp_path)
        assert report.returncode == 0, report.stderr
        assert json.loads(report.stdout)["total_cells"] == 9

        resume = repro_cli("resume", "camp", "--quiet", "--json", cwd=tmp_path)
        assert resume.returncode == 0, resume.stderr
        provenance = json.loads(resume.stdout)["provenance"]
        assert provenance["already_done"] == 9
        assert provenance["executed"] == 0

    def test_interrupted_campaign_resumes_only_remainder(self, tmp_path):
        run = repro_cli(
            "run", "--spec", "minimum", "--grid", "0:3", "--trials", "2",
            "--seed", "5", "--out", "camp", "--quiet", "--no-cache",
            cwd=tmp_path,
        )
        assert run.returncode == 0, run.stderr
        store = tmp_path / "camp" / "results.jsonl"
        lines = store.read_text().splitlines(keepends=True)
        store.write_text("".join(lines[:3]))  # as if killed after 3 cells

        resume = repro_cli(
            "resume", "camp", "--quiet", "--no-cache", "--json", cwd=tmp_path
        )
        assert resume.returncode == 0, resume.stderr
        provenance = json.loads(resume.stdout)["provenance"]
        assert provenance["already_done"] == 3
        assert provenance["executed"] == 6
        assert json.loads(resume.stdout)["total_cells"] == 9

    def test_second_run_hits_cache(self, tmp_path):
        args = (
            "run", "--spec", "minimum", "--grid", "0:3", "--trials", "2",
            "--seed", "5", "--quiet", "--json", "--cache-dir", "cache",
        )
        first = repro_cli(*args, "--out", "one", cwd=tmp_path)
        assert first.returncode == 0, first.stderr
        second = repro_cli(*args, "--out", "two", cwd=tmp_path)
        assert second.returncode == 0, second.stderr
        provenance = json.loads(second.stdout)["provenance"]
        assert provenance["from_cache"] == 9
        assert provenance["executed"] == 0

    def test_specs_and_engines_listings(self, tmp_path):
        specs = repro_cli("specs", cwd=tmp_path)
        assert specs.returncode == 0
        assert "minimum" in specs.stdout
        engines = repro_cli("engines", cwd=tmp_path)
        assert engines.returncode == 0
        assert "python" in engines.stdout and "vectorized" in engines.stdout
        assert "tau" in engines.stdout
        assert "tau-vec" in engines.stdout
        assert "approximate" in engines.stdout  # capability surfaced
        assert ">= 10000" in engines.stdout  # tau's population floor
        assert "batch" in engines.stdout and "scalar" in engines.stdout
        # the "auto" cost rule, not a population ceiling, per engine
        rows = {line.split()[0]: line for line in engines.stdout.splitlines()}
        for name in ("python", "vectorized", "tau", "tau-vec"):
            assert " + T*" in rows[name] and "us/step" in rows[name]
        assert "uncalibrated" not in engines.stdout  # every built-in has costs
        assert "<=" not in engines.stdout

    def test_engines_lists_an_uncalibrated_engine_as_such(self, capsys):
        # No built-in lacks cost constants, so register one that does.
        from repro.lab import cli
        from repro.sim.registry import register_engine, unregister_engine

        class Uncalibrated:
            def run_many(self, crn, x, config):
                raise NotImplementedError

            def estimate_expected_output(self, crn, x, config):
                raise NotImplementedError

        register_engine("cli-uncalibrated", supports_fair=False)(Uncalibrated)
        try:
            assert cli.main(["engines"]) == 0
        finally:
            unregister_engine("cli-uncalibrated")
        rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        assert "cost uncalibrated" in rows["cli-uncalibrated"]

    def test_engines_json_matches_the_registry(self, tmp_path):
        result = repro_cli("engines", "--json", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)

        # the machine-readable form is EngineInfo.to_dict, the same
        # serialization GET /v1/engines responds with
        from repro.sim.registry import registered_engines

        assert payload == {"engines": [info.to_dict() for info in registered_engines()]}
        by_name = {entry["name"]: entry for entry in payload["engines"]}
        assert set(by_name) == {"python", "vectorized", "tau", "tau-vec"}
        assert by_name["tau"]["approximate"] is True
        assert by_name["tau"]["min_recommended_population"] == 10000
        assert by_name["python"]["supports_fair"] is True
        assert by_name["tau-vec"]["approximate"] is True
        assert by_name["tau-vec"]["batch_capable"] is True
        assert by_name["vectorized"]["batch_capable"] is True
        assert by_name["python"]["batch_capable"] is False
        python, vectorized = by_name["python"], by_name["vectorized"]
        assert python["trial_step_cost"] > vectorized["trial_step_cost"]
        assert vectorized["step_cost"] > python["step_cost"]

    def test_unknown_spec_is_a_clean_error(self, tmp_path):
        run = repro_cli(
            "run", "--spec", "definitely-not-a-spec", "--out", "x", cwd=tmp_path
        )
        assert run.returncode == 2
        assert "unknown spec" in run.stderr

    def test_bench_writes_schema(self, tmp_path):
        bench = repro_cli(
            "bench", "--populations", "20", "--trials", "2", "--workers", "2",
            "--out", "B.json", cwd=tmp_path,
        )
        assert bench.returncode == 0, bench.stderr
        payload = json.loads((tmp_path / "B.json").read_text())
        assert payload["schema"] == "repro-bench-v1"
        names = [record["name"] for record in payload["results"]]
        assert any("python" in name for name in names)
        assert any("vectorized" in name for name in names)
        for record in payload["results"]:
            assert record["steps"] > 0
            assert record["wall_time_s"] > 0

    def test_bench_default_out_is_the_repo_root(self, tmp_path):
        # No --out: the records must land in BENCH_results.json at the
        # repository root found by walking up from the working directory, so
        # the perf trajectory accumulates in one tracked file.
        (tmp_path / "ROADMAP.md").write_text("marker\n")
        nested = tmp_path / "deep" / "inside"
        nested.mkdir(parents=True)
        bench = repro_cli(
            "bench", "--populations", "10", "--trials", "1", "--workers", "1",
            cwd=nested,
        )
        assert bench.returncode == 0, bench.stderr
        assert (tmp_path / "BENCH_results.json").exists()
        assert not (nested / "BENCH_results.json").exists()

    def test_bench_merges_into_existing_results(self, tmp_path):
        (tmp_path / "BENCH_results.json").write_text(
            json.dumps(
                {
                    "schema": "repro-bench-v1",
                    "source": "older run",
                    "results": [
                        {
                            "name": "some-other-family/alpha",
                            "population": 5,
                            "steps": 1,
                            "wall_time_s": 1.0,
                            "steps_per_sec": 1.0,
                        }
                    ],
                }
            )
        )
        bench = repro_cli(
            "bench", "--populations", "10", "--trials", "1", "--workers", "1",
            "--out", "BENCH_results.json", cwd=tmp_path,
        )
        assert bench.returncode == 0, bench.stderr
        payload = json.loads((tmp_path / "BENCH_results.json").read_text())
        names = [record["name"] for record in payload["results"]]
        assert "some-other-family/alpha" in names  # survived the merge
        assert any(name.startswith("campaign/") for name in names)

    def test_version_flag(self, tmp_path):
        import repro

        result = repro_cli("--version", cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout.strip() == f"repro {repro.__version__}"


class TestReportStreaming:
    def test_report_never_materializes_the_row_list(self, tmp_path, monkeypatch, capsys):
        # the tripwire: `repro report` must fold store.iter_rows() in one
        # streaming pass — store.load() materializes every row and would make
        # million-cell reports O(rows) in memory
        from repro.api.config import RunConfig
        from repro.lab import cli
        from repro.lab.campaign import Campaign, SweepGrid, run_campaign
        from repro.lab.store import ResultStore

        campaign = Campaign(
            name="stream-test",
            specs=["minimum"],
            inputs=SweepGrid.parse("0:3", dimension=2),
            engines=("python",),
            configs=(RunConfig(trials=2),),
            seed=5,
        )
        out = tmp_path / "camp"
        run_campaign(campaign, str(out), cache_dir=None)

        def tripwire(self):
            raise AssertionError("report must stream iter_rows(), never store.load()")

        monkeypatch.setattr(ResultStore, "load", tripwire)
        assert cli.main(["report", str(out), "--profile"]) == 0
        output = capsys.readouterr().out
        assert "stream-test" in output
        assert "slowest cells" in output or "profile" in output.lower()


def write_bench_file(path, **throughputs):
    path.write_text(
        json.dumps(
            {
                "schema": "repro-bench-v1",
                "source": "test",
                "results": [
                    {
                        "name": name,
                        "population": 100,
                        "steps": 1000,
                        "wall_time_s": 1.0,
                        "steps_per_sec": value,
                    }
                    for name, value in throughputs.items()
                ],
            }
        )
    )


class TestBenchCompare:
    def test_no_regression_passes(self, tmp_path):
        write_bench_file(tmp_path / "old.json", **{"scalar/gillespie": 1000.0})
        write_bench_file(tmp_path / "new.json", **{"scalar/gillespie": 950.0})
        result = repro_cli("bench-compare", "old.json", "new.json", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "scalar/gillespie" in result.stdout

    def test_regression_beyond_threshold_fails(self, tmp_path):
        write_bench_file(tmp_path / "old.json", **{"scalar/gillespie": 1000.0})
        write_bench_file(tmp_path / "new.json", **{"scalar/gillespie": 500.0})
        result = repro_cli("bench-compare", "old.json", "new.json", cwd=tmp_path)
        assert result.returncode == 4
        assert "regression" in result.stderr.lower()

    def test_threshold_is_configurable(self, tmp_path):
        write_bench_file(tmp_path / "old.json", **{"scalar/gillespie": 1000.0})
        write_bench_file(tmp_path / "new.json", **{"scalar/gillespie": 500.0})
        result = repro_cli(
            "bench-compare", "old.json", "new.json", "--max-regression", "0.6",
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr

    def test_filter_restricts_comparison(self, tmp_path):
        write_bench_file(
            tmp_path / "old.json",
            **{"scalar/gillespie": 1000.0, "campaign/minimum": 1000.0},
        )
        write_bench_file(
            tmp_path / "new.json",
            **{"scalar/gillespie": 1000.0, "campaign/minimum": 100.0},
        )
        result = repro_cli(
            "bench-compare", "old.json", "new.json", "--filter", "scalar",
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr  # campaign drop filtered out
        assert "campaign/minimum" not in result.stdout

    def test_missing_baseline_is_not_a_failure(self, tmp_path):
        write_bench_file(tmp_path / "new.json", **{"scalar/gillespie": 1000.0})
        result = repro_cli("bench-compare", "absent.json", "new.json", cwd=tmp_path)
        assert result.returncode == 0
        assert "no baseline" in result.stdout

    def test_missing_current_is_an_error(self, tmp_path):
        write_bench_file(tmp_path / "old.json", **{"scalar/gillespie": 1000.0})
        result = repro_cli("bench-compare", "old.json", "absent.json", cwd=tmp_path)
        assert result.returncode == 2

    def test_new_and_removed_records_are_skipped(self, tmp_path):
        write_bench_file(tmp_path / "old.json", **{"retired/bench": 1000.0})
        write_bench_file(tmp_path / "new.json", **{"brand-new/bench": 1.0})
        result = repro_cli("bench-compare", "old.json", "new.json", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "nothing to compare" in result.stdout

    def test_markdown_emits_trend_table(self, tmp_path):
        write_bench_file(
            tmp_path / "old.json",
            **{"scalar/gillespie": 1000.0, "retired/bench": 50.0},
        )
        write_bench_file(
            tmp_path / "new.json",
            **{"scalar/gillespie": 950.0, "tau-leap/kernel": 9000.0},
        )
        result = repro_cli("bench-compare", "old.json", "new.json", "--markdown",
                           cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "| benchmark | baseline steps/s |" in result.stdout
        assert "| `scalar/gillespie` | 1,000 | 950 | 95% |" in result.stdout
        assert "stable" in result.stdout
        assert "`tau-leap/kernel`" in result.stdout  # new record listed
        assert "`retired/bench`" in result.stdout  # retired record listed

    def test_markdown_still_fails_on_regression(self, tmp_path):
        write_bench_file(tmp_path / "old.json", **{"scalar/gillespie": 1000.0})
        write_bench_file(tmp_path / "new.json", **{"scalar/gillespie": 500.0})
        result = repro_cli("bench-compare", "old.json", "new.json", "--markdown",
                           cwd=tmp_path)
        assert result.returncode == 4
        assert ":x: regression" in result.stdout
        assert "regression" in result.stderr.lower()
