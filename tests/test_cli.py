"""CLI tests for ``python -m repro``."""

import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table3" in out
    assert "cpu-eks-aws" in out
    assert "amg2023" in out
    assert "undeployable" in out  # ParallelCluster GPU marked
    assert "scenarios:" in out
    assert "spot-everything" in out


def test_run_command(capsys):
    assert main(["run", "cpu-eks-aws", "amg2023", "64"]) == 0
    out = capsys.readouterr().out
    assert "FOM" in out
    assert "completed" in out


def test_run_command_failure_exit_code(capsys):
    # Laghos at 256 cloud nodes times out -> nonzero exit.
    assert main(["run", "cpu-eks-aws", "laghos", "256"]) == 1
    out = capsys.readouterr().out
    assert "timeout" in out


def test_experiment_command(capsys):
    assert main(["experiment", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Environment Characteristics" in out
    assert "3/3 paper claims reproduced" in out


def test_experiment_with_iterations(capsys):
    assert main(["experiment", "hookup", "--iterations", "5"]) == 0
    assert "claims reproduced" in capsys.readouterr().out


def test_study_command(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    rc = main([
        "study",
        "--envs", "cpu-eks-aws",
        "--apps", "amg2023",
        "--sizes", "32",
        "--iterations", "2",
        "--output", str(csv_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "datasets          : 2" in out
    assert csv_path.exists()
    assert csv_path.read_text().startswith("env_id,")


def test_study_command_with_workers_and_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = [
        "study",
        "--envs", "cpu-eks-aws,cpu-onprem-a",
        "--apps", "amg2023",
        "--sizes", "32",
        "--iterations", "2",
        "--workers", "2",
        "--cache", str(cache_dir),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "run cache         : 0 hits" in cold
    assert cache_dir.is_dir()

    # The repeat campaign replays every run from the cache.
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "run cache         : 4 hits, 0 misses" in warm
    assert cold.splitlines()[0] == warm.splitlines()[0]  # same dataset count


def test_study_cache_path_collision_is_a_clean_error(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("occupied")
    rc = main(["study", "--envs", "cpu-eks-aws", "--apps", "stream",
               "--sizes", "32", "--cache", str(not_a_dir)])
    assert rc == 2
    assert "not a directory" in capsys.readouterr().err


def test_scenario_list_command(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert "spot-everything" in out
    assert "quota-crunch" in out


def test_scenario_run_command(tmp_path, capsys):
    csv_path = tmp_path / "deltas.csv"
    rc = main([
        "scenario", "run",
        "--scenario", "azure-price-spike",
        "--envs", "cpu-aks-az,cpu-onprem-a",
        "--apps", "amg2023",
        "--sizes", "32",
        "--iterations", "2",
        "--workers", "2",
        "--output", str(csv_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "What-if scenarios vs baseline" in out
    assert "azure-price-spike" in out
    assert "baseline" in out
    assert csv_path.read_text().startswith("scenario,")


def test_scenario_run_accepts_a_json_spec_file(tmp_path, capsys):
    spec = tmp_path / "my-spike.json"
    spec.write_text(
        '{"scenario_id": "my-spike", '
        '"price_shocks": [{"cloud": "aws", "multiplier": 3.0}]}'
    )
    rc = main([
        "scenario", "run",
        "--scenario", str(spec),
        "--envs", "cpu-eks-aws,cpu-onprem-a",
        "--apps", "amg2023",
        "--sizes", "32",
        "--iterations", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "my-spike" in out
    assert "baseline" in out


def test_scenario_preset_wins_over_a_stray_local_file(tmp_path, monkeypatch, capsys):
    # A file in cwd named after a preset must not shadow the registry.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "calm-seas").write_text("not a scenario spec")
    rc = main(["scenario", "run", "--scenario", "calm-seas",
               "--envs", "cpu-onprem-a", "--apps", "stream", "--sizes", "32",
               "--iterations", "1"])
    assert rc == 0
    assert "calm-seas" in capsys.readouterr().out


def test_scenario_run_missing_json_file_is_a_clean_error(capsys):
    rc = main(["scenario", "run", "--scenario", "no/such/scenario.json",
               "--envs", "cpu-onprem-a", "--apps", "stream", "--sizes", "32"])
    assert rc == 2
    assert "cannot read scenario file" in capsys.readouterr().err


def test_scenario_run_invalid_json_file_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["scenario", "run", "--scenario", str(bad),
               "--envs", "cpu-onprem-a", "--apps", "stream", "--sizes", "32"])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_scenario_run_duplicate_scenario_is_a_clean_error(capsys):
    rc = main(["scenario", "run", "--scenario", "spot-aws",
               "--scenario", "spot-aws",
               "--envs", "cpu-onprem-a", "--apps", "stream", "--sizes", "32"])
    assert rc == 2
    assert "duplicate" in capsys.readouterr().err


def test_scenario_run_unknown_scenario_is_a_clean_error(capsys):
    rc = main(["scenario", "run", "--scenario", "asteroid-strike",
               "--envs", "cpu-onprem-a", "--apps", "stream", "--sizes", "32"])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_scenario_run_cache_path_collision_is_a_clean_error(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("occupied")
    rc = main(["scenario", "run", "--scenario", "spot-aws",
               "--envs", "cpu-eks-aws", "--apps", "stream", "--sizes", "32",
               "--cache", str(not_a_dir)])
    assert rc == 2
    assert "not a directory" in capsys.readouterr().err


def test_ensemble_run_command(tmp_path, capsys):
    csv_path = tmp_path / "dist.csv"
    json_path = tmp_path / "dist.json"
    rc = main([
        "ensemble", "run",
        "--replicas", "2",
        "--envs", "cpu-eks-aws,cpu-onprem-a",
        "--apps", "amg2023",
        "--sizes", "32",
        "--iterations", "2",
        "--workers", "2",
        "--output", str(csv_path),
        "--json", str(json_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Ensemble distributions (per cell)" in out
    assert "P(FOM>=base)" in out
    assert "worlds folded     : 2" in out
    assert csv_path.read_text().startswith("scenario,env,app,scale,n,")
    import json as jsonlib

    data = jsonlib.loads(json_path.read_text())
    assert data["worlds"] == 2
    assert len(data["cells"]) == 2


def test_ensemble_run_is_byte_identical_across_worker_counts(capsys):
    argv = [
        "ensemble", "run", "--replicas", "2",
        "--envs", "cpu-eks-aws,cpu-onprem-a", "--apps", "amg2023",
        "--sizes", "32", "--iterations", "2",
    ]
    assert main(argv + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--workers", "4"]) == 0
    sharded = capsys.readouterr().out
    assert serial == sharded


def test_ensemble_run_with_scenario_and_spec_file(tmp_path, capsys):
    spec = tmp_path / "ensemble.json"
    spec.write_text(
        '{"n_replicas": 2, "scenarios": ["price-war"], '
        '"env_ids": ["cpu-eks-aws"], "apps": ["amg2023"], '
        '"sizes": [32], "iterations": 2}'
    )
    rc = main(["ensemble", "run", "--spec", str(spec)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "price-war" in out
    assert "worlds folded     : 4" in out


def test_ensemble_run_bad_spec_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_replicas": 0}')
    rc = main(["ensemble", "run", "--spec", str(bad)])
    assert rc == 2
    assert "n_replicas" in capsys.readouterr().err


def test_ensemble_run_unknown_scenario_is_a_clean_error(capsys):
    rc = main(["ensemble", "run", "--scenario", "asteroid-strike",
               "--envs", "cpu-onprem-a", "--apps", "stream", "--sizes", "32"])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_ensemble_help_documents_examples(capsys):
    with pytest.raises(SystemExit):
        main(["ensemble", "--help"])
    out = capsys.readouterr().out
    assert "examples:" in out
    assert "distributions" in out


def test_help_documents_every_subcommand_with_examples():
    help_text = build_parser().format_help()
    for subcommand in ("list", "experiment", "run", "study", "scenario",
                       "ensemble", "campaign", "bench", "report"):
        assert subcommand in help_text
    assert "examples:" in help_text
    assert "--workers 4" in help_text
    assert "--cache" in help_text


def test_bench_quick_command(capsys, tmp_path):
    artifact = tmp_path / "BENCH_vector.json"
    assert main(["bench", "--quick", "--output", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "block (run_block)" in out
    assert "byte-identical" in out
    import json

    payload = json.loads(artifact.read_text(encoding="utf-8"))
    assert payload["byte_identical"] is True
    assert payload["pipeline"]["block_speedup"] > 0


def test_scenario_help_documents_examples(capsys):
    with pytest.raises(SystemExit):
        main(["scenario", "--help"])
    out = capsys.readouterr().out
    assert "spot-everything" in out
    assert "examples:" in out


def test_study_help_documents_workers_and_cache(capsys):
    with pytest.raises(SystemExit):
        main(["study", "--help"])
    out = capsys.readouterr().out
    assert "--workers" in out
    assert "--cache" in out
    assert "byte-identical" in out


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


def test_parser_rejects_unknown_env():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "cpu-oracle", "amg2023", "32"])


# ------------------------------------------- plan diff / incremental runs


def test_plan_diff_command(capsys):
    assert main([
        "plan", "diff", "--scenario", "azure-price-spike",
        "--envs", "cpu-eks-aws,cpu-aks-az", "--apps", "amg2023", "--sizes", "32",
    ]) == 0
    out = capsys.readouterr().out
    assert "plan diff:" in out
    assert "cells: 4  reusable: 3  dirty: 1" in out
    # The one dirty cell is the Azure cell, with its overlay hook named.
    assert "[dirty   ] world   1 (azure-price-spike) cpu-aks-az @ 32" in out
    assert "effective_rate" in out
    assert "[reusable] world   1 (azure-price-spike) cpu-eks-aws @ 32" in out


def test_plan_diff_json_output(capsys):
    import json

    assert main([
        "plan", "diff", "--scenario", "azure-price-spike",
        "--envs", "cpu-eks-aws,cpu-aks-az", "--apps", "amg2023", "--sizes", "32",
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"] == {"cells": 4, "reusable": 3, "dirty": 1}
    (dirty,) = [c for c in payload["cells"] if c["dirty"]]
    assert dirty["env"] == "cpu-aks-az"
    assert dirty["scenario"] == "azure-price-spike"
    assert dirty["hooks"] == ["effective_rate"]
    assert all(
        c["baseline_index"] is not None for c in payload["cells"] if not c["dirty"]
    )


def test_plan_diff_of_an_unperturbed_plan_is_fully_reusable(capsys):
    assert main([
        "plan", "diff", "--envs", "cpu-eks-aws", "--apps", "amg2023",
        "--sizes", "32",
    ]) == 0
    out = capsys.readouterr().out
    assert "cells: 1  reusable: 1  dirty: 0" in out


def test_plan_diff_unknown_scenario_is_a_clean_error(capsys):
    assert main(["plan", "diff", "--scenario", "no-such-world"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_scenario_run_incremental_prints_reuse_summary(tmp_path, capsys):
    assert main([
        "scenario", "run", "--scenario", "azure-price-spike",
        "--envs", "cpu-eks-aws,cpu-aks-az", "--apps", "amg2023", "--sizes", "32",
        "--cache", str(tmp_path / "cache"), "--incremental",
    ]) == 0
    out = capsys.readouterr().out
    assert "cell reuse        : 1 cells reused, 1 executed " \
           "(diff: 1 reusable / 1 dirty)" in out


def test_scenario_run_incremental_without_cache_is_a_clean_error(capsys):
    assert main([
        "scenario", "run", "--scenario", "azure-price-spike", "--incremental",
    ]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "needs a cache directory" in err


def test_ensemble_run_incremental_prints_reuse_summary(tmp_path, capsys):
    assert main([
        "ensemble", "run", "--replicas", "2", "--scenario", "azure-price-spike",
        "--envs", "cpu-eks-aws,cpu-aks-az", "--apps", "amg2023", "--sizes", "32",
        "--cache", str(tmp_path / "cache"), "--incremental",
    ]) == 0
    out = capsys.readouterr().out
    # Both spike replicas attach their untouched AWS cell.
    assert "cell reuse        : 2 cells reused, 2 executed " \
           "(diff: 2 reusable / 2 dirty)" in out


def test_ensemble_run_incremental_without_cache_is_a_clean_error(capsys):
    assert main([
        "ensemble", "run", "--scenario", "azure-price-spike", "--incremental",
    ]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "needs a cache directory" in err


def test_plan_help_documents_diff(capsys):
    with pytest.raises(SystemExit):
        main(["plan", "--help"])
    out = capsys.readouterr().out
    assert "plan diff" in out
    assert "--incremental" in out or "incremental" in out


def test_study_trace_writes_document_and_summary(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    rc = main([
        "study", "--envs", "cpu-eks-aws", "--apps", "amg2023", "--sizes", "32",
        "--workers", "2", "--trace", str(trace_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Self-time by phase" in out
    assert "study.run" in out
    assert trace_path.exists()
    from repro.telemetry import load_trace

    doc = load_trace(str(trace_path))
    assert doc["span_count"] > 0
    assert doc["lanes"][0]["label"] == "main"


def test_trace_summarize_command(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    main([
        "study", "--envs", "cpu-eks-aws", "--apps", "amg2023", "--sizes", "32",
        "--trace", str(trace_path),
    ])
    capsys.readouterr()
    assert main(["trace", "summarize", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "Self-time by phase" in out
    assert "coverage" in out


def test_trace_chrome_command(tmp_path, capsys):
    import json as jsonlib

    trace_path = tmp_path / "trace.json"
    main([
        "study", "--envs", "cpu-eks-aws", "--apps", "amg2023", "--sizes", "32",
        "--trace", str(trace_path),
    ])
    capsys.readouterr()
    out_path = tmp_path / "chrome.json"
    assert main(["trace", "chrome", str(trace_path), "-o", str(out_path)]) == 0
    events = jsonlib.loads(out_path.read_text())
    assert any(e["ph"] == "X" for e in events)


def test_trace_summarize_rejects_non_trace_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    assert main(["trace", "summarize", str(bogus)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bench_quick_trace_adds_phase_section(tmp_path, capsys):
    trace_path = tmp_path / "bench-trace.json"
    assert main(["bench", "--quick", "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "phase (self-time)" in out
    assert "bench.run" in out
    assert trace_path.exists()


def test_study_cache_line_shows_invalid_reasons(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = [
        "study", "--envs", "cpu-eks-aws", "--apps", "amg2023", "--sizes", "32",
        "--cache", str(cache_dir),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    for entry in cache_dir.glob("*/*.json"):
        entry.write_text("{ not json")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "invalid (re-simulated; see warnings)" in out
    assert "[" in out and "x" in out  # the reason histogram detail


CAMPAIGN_SPEC_JSON = """\
{
  "sla": {"min_exceedance": 0.5, "min_completion": 0.5, "max_cost_per_fom": 2.0},
  "scenarios": [
    {"scenario_id": "cheap-aws",
     "price_shocks": [{"cloud": "aws", "multiplier": 0.9}]},
    {"scenario_id": "slow-aws",
     "fabric": {"latency_multiplier": 3.0, "clouds": ["aws"]}}
  ],
  "env_ids": ["cpu-eks-aws"],
  "apps": ["lammps"],
  "sizes": [16],
  "iterations": 2,
  "smoke": {"replicas": 1, "margin": 0.5},
  "grid": {"replicas": 2}
}
"""


def test_campaign_show_command(tmp_path, capsys):
    spec = tmp_path / "campaign.json"
    spec.write_text(CAMPAIGN_SPEC_JSON)
    assert main(["campaign", "show", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "objective" in out
    assert "cost_per_fom" in out
    assert "smoke" in out and "grid" in out
    assert "cheap-aws" in out


def test_campaign_run_command(tmp_path, capsys):
    spec = tmp_path / "campaign.json"
    spec.write_text(CAMPAIGN_SPEC_JSON)
    csv_path = tmp_path / "frontier.csv"
    json_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.json"
    rc = main([
        "campaign", "run",
        "--spec", str(spec),
        "--workers", "2",
        "--output", str(csv_path),
        "--json", str(json_path),
        "--trace", str(trace_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Pareto frontier" in out
    assert "winner: cheap-aws" in out
    assert "campaign digest" in out
    # The trace summary names the five stage spans.
    assert "campaign.smoke" in out
    assert "campaign.grid" in out
    assert "campaign.publish" in out
    assert csv_path.read_text().startswith("rank,scenario,env,app,scale,")
    import json as jsonlib

    report = jsonlib.loads(json_path.read_text())
    assert report["v"] == 1
    assert set(report["stages"]) == {"smoke", "grid", "ab", "select", "publish"}
    assert report["winner"]["scenario"] == "cheap-aws"
    assert trace_path.exists()


def test_campaign_run_is_byte_identical_across_worker_counts(tmp_path, capsys):
    spec = tmp_path / "campaign.json"
    spec.write_text(CAMPAIGN_SPEC_JSON)

    def run(workers, path):
        rc = main(["campaign", "run", "--spec", str(spec),
                   "--workers", workers, "--json", str(path)])
        assert rc == 0
        capsys.readouterr()
        import json as jsonlib

        data = jsonlib.loads(path.read_text())
        del data["profile"]  # measured seconds — the one non-deterministic bit
        del data["stages"]   # cache accounting moves between cold/warm runs
        return jsonlib.dumps(data, sort_keys=True)

    serial = run("1", tmp_path / "r1.json")
    sharded = run("4", tmp_path / "r4.json")
    assert serial == sharded


def test_campaign_run_bad_spec_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid": {"replicas": 0}}')
    assert main(["campaign", "run", "--spec", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_campaign_run_duplicate_scenarios_is_a_clean_error(tmp_path, capsys):
    dup = tmp_path / "dup.json"
    dup.write_text(
        '{"scenarios": [{"scenario_id": "a"}, {"scenario_id": "a"}]}'
    )
    assert main(["campaign", "run", "--spec", str(dup)]) == 2
    err = capsys.readouterr().err
    assert "duplicate" in err and "'a' x2" in err


def test_campaign_help_documents_examples(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "--help"])
    out = capsys.readouterr().out
    assert "examples:" in out
    assert "smoke" in out


# -- fault tolerance flags ----------------------------------------------------

_SMOKE_FLAGS = ["--envs", "cpu-eks-aws", "--apps", "lammps", "--sizes", "32"]


def test_study_chaos_flag_survives_and_reports_on_stderr(capsys):
    assert main(["study", *_SMOKE_FLAGS]) == 0
    clean = capsys.readouterr()
    assert main(["study", *_SMOKE_FLAGS, "--chaos", "transient=1.0"]) == 0
    chaotic = capsys.readouterr()
    # Diagnostics go to stderr; stdout stays byte-identical through the
    # injected faults and their retries.
    assert chaotic.out == clean.out
    assert "fault recovery" in chaotic.err
    assert "injected=" in chaotic.err


def test_study_bad_chaos_spec_is_a_clean_error(capsys):
    assert main(["study", "--chaos", "explode=1"]) == 2
    assert "bad chaos spec" in capsys.readouterr().err


def test_study_chaos_rate_out_of_range_is_a_clean_error(capsys):
    assert main(["study", "--chaos", "kill=1.5"]) == 2
    assert "within [0, 1]" in capsys.readouterr().err


def test_study_resume_without_cache_is_a_clean_error(capsys):
    assert main(["study", "--resume"]) == 2
    err = capsys.readouterr().err
    assert "resume needs a cache directory" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--workers", "0"], "workers must be at least 1 (got 0)"),
        (["--workers", "-2"], "workers must be at least 1 (got -2)"),
        (["--spill-mb", "-5"], "--spill-mb must be at least 0 (got -5)"),
        (["--transport", "bogus"], "unknown transport 'bogus'"),
    ],
)
def test_study_out_of_range_execution_flags_are_clean_errors(flags, message, capsys):
    assert main(["study", *_SMOKE_FLAGS, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


def test_study_resume_replays_journaled_cells(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["study", *_SMOKE_FLAGS, "--cache", cache]) == 0
    first = capsys.readouterr()
    assert main(["study", *_SMOKE_FLAGS, "--cache", cache, "--resume"]) == 0
    resumed = capsys.readouterr()
    # Same campaign summary on stdout; the resumed run re-attached the
    # journaled cell instead of executing it, and says so on stderr.
    assert resumed.out.splitlines()[0] == first.out.splitlines()[0]
    assert "resumed=1" in resumed.err


def test_ensemble_run_accepts_fault_flags(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    rc = main([
        "ensemble", "run", "--replicas", "2", *_SMOKE_FLAGS,
        "--cache", cache, "--chaos", "transient=1.0",
        "--max-retries", "4", "--workers", "2",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "worlds folded     : 2" in captured.out
    assert "fault recovery" in captured.err


def test_campaign_run_accepts_fault_flags(tmp_path, capsys):
    import json as _json

    spec = tmp_path / "campaign.json"
    spec.write_text(_json.dumps({
        "sla": {"min_exceedance": 0.0},
        "scenarios": ["price-war"],
        "env_ids": ["cpu-eks-aws"], "apps": ["amg2023"], "sizes": [32],
        "smoke": {"replicas": 1, "margin": 0.5}, "grid": {"replicas": 1},
    }))
    report_path = tmp_path / "report.json"
    rc = main([
        "campaign", "run", "--spec", str(spec), "--workers", "2",
        "--chaos", "transient=1.0", "--json", str(report_path),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "fault recovery" in captured.err
    report = _json.loads(report_path.read_text())
    # Recovery accounting lands in the profile section only — the
    # decision core stays byte-identical to an uninjected campaign.
    assert report["profile"]["faults"]["injected"] >= 1


def test_closed_stdout_pipe_exits_quietly(child_env):
    # ~90 kB of JSON: more than a pipe holds, so the CLI is still writing
    # when the reader goes away after 100 bytes (``| head -c 100``).
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "plan", "show", "--json", "--replicas", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env, bufsize=0,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
