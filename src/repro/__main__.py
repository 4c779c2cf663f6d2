"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — show available experiments, environments, and applications;
* ``experiment <id>`` — regenerate one table/figure and verify its
  paper claims (``--iterations``, ``--seed``);
* ``run <env> <app> <scale>`` — a single simulated run;
* ``study`` — a campaign over selected environments/apps, optionally
  sharded across worker processes (``--workers``) with a
  content-addressed run cache (``--cache``), with the dataset
  exportable as CSV (``--output``) or JSON (``--json``);
* ``plan`` — the execution planner: ``plan show`` compiles the study /
  scenario sweep / ensemble you describe into its
  :class:`~repro.plan.ir.RunPlan` and prints worlds, shards, run
  counts, and the plan digest — without executing anything; ``plan
  diff`` classifies every compiled cell as *reusable* or *dirty*
  against the baseline plan (the decision ``--incremental`` execution
  acts on);
* ``scenario`` — the what-if engine: ``scenario list`` shows the
  registered counterfactuals, ``scenario run`` executes selected
  scenarios (preset names or JSON spec files) against the baseline and
  prints the delta report;
* ``ensemble`` — the Monte-Carlo replication engine: ``ensemble run``
  replicates the campaign across a seed grid × scenario grid and prints
  distributions (mean ± 95% CI, percentiles, exceedance probabilities)
  instead of point estimates, with CSV/JSON export;
* ``campaign`` — staged experiment campaigns over the planner:
  ``campaign run --spec FILE`` drives SMOKE → GRID → AB → SELECT →
  PUBLISH (prune the search space cheaply, measure survivors at full
  fidelity with incremental reuse, pick the cheapest config that meets
  the SLA) and can export the frontier CSV and the CampaignReport
  JSON; ``campaign show`` prints what would run without executing;
* ``bench`` — run the vectorization benchmark suite locally and print
  the speedup table (``--output`` writes the BENCH_vector.json
  artifact, ``--quick`` runs a small smoke campaign);
* ``trace`` — inspect trace documents recorded with ``--trace``
  (available on ``study``, ``scenario run``, ``ensemble run``, and
  ``bench``): ``trace summarize`` prints self-time by phase and
  counters, ``trace chrome`` converts to Chrome trace_event JSON;
* ``report`` — render the full evaluation report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.apps.registry import APPS
from repro.core.study import StudyConfig, StudyRunner
from repro.envs.registry import ENVIRONMENTS, environment
from repro.experiments import EXPERIMENTS, run_experiment
from repro.reporting.compare import summarize
from repro.reporting.series import render_series
from repro.reporting.tables import render_table
from repro.scenarios.presets import SCENARIOS, scenario as scenario_lookup
from repro.scenarios.spec import Scenario
from repro.sim.execution import ExecutionEngine
from repro.units import fmt_seconds, fmt_usd


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:")
    for eid in sorted(EXPERIMENTS):
        print(f"  {eid}")
    print("\nenvironments:")
    for env_id, env in ENVIRONMENTS.items():
        marker = "" if env.deployable else "  (undeployable, §3.1)"
        print(f"  {env_id:28s} {env.display_name}{marker}")
    print("\napplications:")
    for name, model in APPS.items():
        print(f"  {name:14s} {model.fom_name} [{model.fom_units}], {model.scaling} scaled")
    print()
    _print_scenarios()
    return 0


def _print_scenarios() -> None:
    print("scenarios:")
    for name, scn in SCENARIOS.items():
        print(f"  {name:18s} {scn.description}")


def _cmd_experiment(args: argparse.Namespace) -> int:
    out = run_experiment(args.id, seed=args.seed, iterations=args.iterations)
    if out.table is not None:
        print(render_table(out.table))
    for series in out.series:
        print(render_series(series))
        print()
    results = out.check()
    print(summarize(results))
    if out.notes:
        print(f"\nnotes: {out.notes}")
    return 0 if all(r.holds for r in results) else 1


def _cmd_run(args: argparse.Namespace) -> int:
    engine = ExecutionEngine(seed=args.seed)
    env = environment(args.env)
    record = engine.run(env, args.app, args.scale, iteration=args.iteration)
    print(f"state   : {record.state.value}")
    if record.fom is not None:
        print(f"FOM     : {record.fom:.6g} {record.fom_units}")
    if record.failure_kind:
        print(f"failure : {record.failure_kind}")
    print(f"wall    : {fmt_seconds(record.wall_seconds)}")
    print(f"hookup  : {fmt_seconds(record.hookup_seconds)}")
    print(f"cost    : {fmt_usd(record.cost_usd)}")
    return 0 if record.ok else 1


def _cache_dir_error(cache: str | None) -> str | None:
    """A usage error when ``--cache`` points at a non-directory."""
    import os

    if cache and os.path.exists(cache) and not os.path.isdir(cache):
        return f"error: --cache {cache!r} exists and is not a directory"
    return None


def _split_flag(value: str | None) -> tuple[str, ...] | None:
    """A comma-separated CLI flag as a tuple; ``None`` when unset."""
    return tuple(value.split(",")) if value else None


def _config_from_args(args: argparse.Namespace) -> StudyConfig:
    """The campaign selection shared by ``study`` and ``scenario run``."""
    return StudyConfig(
        env_ids=_split_flag(args.envs) or tuple(ENVIRONMENTS),
        apps=_split_flag(args.apps) or tuple(APPS),
        sizes=tuple(int(s) for s in args.sizes.split(",")) if args.sizes else None,
        iterations=args.iterations,
        seed=args.seed,
    )


def _write_exports(
    args: argparse.Namespace,
    *,
    csv_text,
    json_text,
    csv_label: str,
    json_label: str,
) -> None:
    """The one ``--output``/``--json`` export path every runner shares.

    ``csv_text``/``json_text`` are zero-argument callables so nothing is
    rendered unless its flag was actually given.
    """
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(csv_text())
        print(f"{csv_label:18s}: {args.output}")
    if getattr(args, "json_output", None):
        with open(args.json_output, "w") as fh:
            fh.write(json_text())
        print(f"{json_label:18s}: {args.json_output}")


def _fault_options(args: argparse.Namespace):
    """``(retry, chaos, resume)`` from the shared fault-tolerance flags.

    ``retry`` stays ``None`` — the runner's default
    :class:`~repro.parallel.pool.RetryPolicy` — unless a retry knob was
    actually given; ``--chaos SPEC`` parses through
    :meth:`~repro.chaos.FaultPlan.parse`.  Raises
    :class:`~repro.errors.ConfigurationError` on bad values, which every
    caller turns into a usage error (exit 2).
    """
    from repro.errors import ConfigurationError

    retry = None
    if args.max_retries is not None or args.shard_timeout is not None:
        from repro.parallel.pool import RetryPolicy

        kwargs: dict = {}
        if args.max_retries is not None:
            kwargs["max_attempts"] = args.max_retries
        if args.shard_timeout is not None:
            kwargs["timeout"] = args.shard_timeout
        retry = RetryPolicy(**kwargs)
    chaos = None
    if getattr(args, "chaos", None):
        from repro.chaos import FaultPlan

        chaos = FaultPlan.parse(args.chaos)
    if args.resume and not args.cache:
        raise ConfigurationError(
            "--resume needs --cache: completed cells re-attach through "
            "the journal and caches the interrupted run wrote"
        )
    return retry, chaos, args.resume


def _fmt_faults_line(faults) -> str:
    """One diagnostic line for recovery accounting (non-zero fields)."""
    parts = [
        f"{name}={value}"
        for name, value in sorted(faults.to_dict().items())
        if value
    ]
    return ", ".join(parts) or "none"


def _print_faults(faults) -> None:
    """Recovery diagnostics on stderr (stdout stays byte-identical)."""
    if faults is not None and faults.activity:
        print(f"fault recovery    : {_fmt_faults_line(faults)}", file=sys.stderr)


def _apply_transport_flags(args: argparse.Namespace) -> None:
    """Apply the shared ``--spill-mb`` knob before any store is built.

    The threshold travels through the environment so pool workers
    (forked or spawned) inherit it without any shard plumbing.
    """
    if getattr(args, "spill_mb", None) is not None:
        from repro.core.results import set_spill_limit_mb

        set_spill_limit_mb(args.spill_mb)


def _fmt_cache_line(
    hits: int,
    misses: int,
    invalid: int,
    reasons: dict[str, int] | None = None,
) -> str:
    line = f"{hits} hits, {misses} misses"
    if invalid:
        line += f", {invalid} invalid (re-simulated; see warnings)"
        if reasons:
            detail = ", ".join(
                f"{label} x{count}" for label, count in sorted(reasons.items())
            )
            line += f" [{detail}]"
    return line


class _TraceSession:
    """Materializes ``--trace FILE`` for a runner command.

    Used as a context manager around the execution call: when the flag
    was given, a :class:`~repro.telemetry.Tracer` is installed for the
    block; :meth:`report` (called after the command's own output) writes
    the merged trace document and prints the self-time summary.  With no
    ``--trace`` both are no-ops, so commands wrap unconditionally.
    """

    def __init__(self, args: argparse.Namespace):
        self.path = getattr(args, "trace", None)
        self.tracer = None
        self._installed = None
        self._doc = None

    def __enter__(self) -> "_TraceSession":
        if self.path:
            from repro.telemetry import Tracer, use_tracer

            self.tracer = Tracer()
            self._installed = use_tracer(self.tracer)
            self._installed.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        if self._installed is not None:
            self._installed.__exit__(*exc)
        return False

    def doc(self) -> dict | None:
        """The merged trace document (built once), or ``None`` untraced."""
        if self.tracer is None:
            return None
        if self._doc is None:
            from repro.telemetry import merge_trace

            self._doc = merge_trace(self.tracer)
        return self._doc

    def report(self) -> None:
        doc = self.doc()
        if doc is None:
            return
        from repro.telemetry import render_summary, write_trace

        write_trace(doc, self.path)
        print()
        print(render_summary(doc))
        print(f"\ntrace             : {self.path} "
              f"(inspect: python -m repro trace summarize {self.path})")


def _fmt_reuse_line(reuse) -> str:
    """One summary line for incremental cell reuse (``--incremental``)."""
    line = (
        f"{reuse.attached} cells reused, {reuse.executed} executed "
        f"(diff: {reuse.planned_reusable} reusable / {reuse.planned_dirty} dirty)"
    )
    if reuse.invalid:
        line += f", {reuse.invalid} invalid (re-executed; see warnings)"
    return line


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError

    error = _cache_dir_error(args.cache)
    if error:
        print(error, file=sys.stderr)
        return 2
    config = _config_from_args(args)
    _apply_transport_flags(args)
    try:
        retry, chaos, resume = _fault_options(args)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _TraceSession(args) as session:
        report = StudyRunner(
            config,
            workers=args.workers,
            cache_dir=args.cache,
            transport=args.transport,
            retry=retry,
            chaos=chaos,
            resume=resume,
        ).run()
    print(f"datasets          : {report.datasets}")
    print(f"clusters created  : {report.clusters_created}")
    print(f"containers built  : {report.containers_built} "
          f"({report.containers_failed} failed)")
    for cloud, spend in sorted(report.spend_by_cloud.items()):
        print(f"spend on {cloud:3s}      : {fmt_usd(spend)}")
    if args.cache:
        print(f"run cache         : "
              f"{_fmt_cache_line(report.cache_hits, report.cache_misses, report.cache_invalid, report.cache_invalid_reasons)}")
    if report.transport is not None and report.transport.mode != "inline":
        # Diagnostics, not results: worker count changes this line, so
        # it goes to stderr to keep stdout byte-identical across runs.
        print(f"shard transport   : {report.transport.summary()}", file=sys.stderr)
    _print_faults(report.faults)
    _write_exports(
        args,
        csv_text=report.store.to_csv,
        json_text=lambda: json.dumps(report.to_json_dict(), indent=2, sort_keys=True),
        csv_label="dataset CSV",
        json_label="dataset JSON",
    )
    session.report()
    return 0


def _load_json_file(path: str, kind: str) -> dict:
    """Parsed JSON from ``path``, with read/parse errors as clean
    :class:`~repro.errors.ConfigurationError` usage messages."""
    from repro.errors import ConfigurationError

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {kind} file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON in {kind} file {path!r}: {exc}")


def _resolve_scenario(name: str) -> Scenario:
    """A registered preset name, or a path to a Scenario JSON file.

    Anything that looks like a path (a ``.json`` suffix or a path
    separator) loads via
    :meth:`~repro.scenarios.spec.Scenario.from_dict`; otherwise the
    preset registry wins — a stray local file that happens to share a
    preset's name never shadows the preset — and only then is an
    existing file accepted as a spec.
    """
    looks_like_path = name.endswith(".json") or os.sep in name
    if not looks_like_path and name in SCENARIOS:
        return scenario_lookup(name)
    if looks_like_path or os.path.exists(name):
        return Scenario.from_dict(_load_json_file(name, "scenario"))
    return scenario_lookup(name)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.scenarios.sweep import ScenarioSweep

    if args.scenario_command == "list":
        _print_scenarios()
        return 0

    # scenario run
    error = _cache_dir_error(args.cache)
    if error:
        print(error, file=sys.stderr)
        return 2
    try:
        scenarios = [_resolve_scenario(name) for name in args.scenario]
        _apply_transport_flags(args)
        retry, chaos, resume = _fault_options(args)
        sweep = ScenarioSweep(
            _config_from_args(args),
            scenarios,
            workers=args.workers,
            cache_dir=args.cache,
            incremental=args.incremental,
            transport=args.transport,
            retry=retry,
            chaos=chaos,
            resume=resume,
        )
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _TraceSession(args) as session:
        result = sweep.run()
    print(result.render_deltas())
    print()
    for sid, report in result.reports.items():
        spend = sum(report.spend_by_cloud.values())
        line = (f"{sid:18s} datasets={report.datasets}  spend={fmt_usd(spend)}  "
                f"clusters={report.clusters_created}")
        if report.cache_invalid:
            line += f"  cache-invalid={report.cache_invalid}"
            if report.cache_invalid_reasons:
                detail = ",".join(
                    f"{label}x{count}"
                    for label, count in sorted(report.cache_invalid_reasons.items())
                )
                line += f" [{detail}]"
        print(line)
    if result.reuse is not None:
        print()
        print(f"cell reuse        : {_fmt_reuse_line(result.reuse)}")
    _print_faults(result.faults)
    if args.output or args.json_output:
        print()
    _write_exports(
        args,
        csv_text=lambda: result.delta_table().to_csv(),
        json_text=result.to_json,
        csv_label="delta CSV",
        json_label="sweep JSON",
    )
    session.report()
    return 0


def _ensemble_spec_from_args(args: argparse.Namespace, *, replicas: int):
    """The :class:`EnsembleSpec` both ``ensemble run`` and ``plan show``
    build from identical flags (``--spec`` wins over the flag grid)."""
    from repro.ensemble import EnsembleSpec

    if args.spec:
        return EnsembleSpec.from_dict(_load_json_file(args.spec, "ensemble spec"))
    return EnsembleSpec(
        n_replicas=replicas,
        base_seed=args.seed,
        scenarios=tuple(_resolve_scenario(name) for name in (args.scenario or ())),
        env_ids=_split_flag(args.envs),
        apps=_split_flag(args.apps),
        sizes=tuple(int(s) for s in args.sizes.split(",")) if args.sizes else None,
        iterations=args.iterations,
    )


def _cmd_ensemble(args: argparse.Namespace) -> int:
    from repro.ensemble import EnsembleRunner
    from repro.errors import ConfigurationError

    error = _cache_dir_error(args.cache)
    if error:
        print(error, file=sys.stderr)
        return 2
    try:
        spec = _ensemble_spec_from_args(args, replicas=args.replicas)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _apply_transport_flags(args)
    try:
        retry, chaos, resume = _fault_options(args)
        runner = EnsembleRunner(
            spec,
            workers=args.workers,
            cache_dir=args.cache,
            incremental=args.incremental,
            transport=args.transport,
            retry=retry,
            chaos=chaos,
            resume=resume,
        )
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _TraceSession(args) as session:
        result = runner.run()
    print(result.render())
    print()
    print(f"worlds folded     : {result.worlds} "
          f"({len(spec.scenario_grid())} scenarios x {spec.n_replicas} replicas)")
    print(f"spec digest       : {spec.digest()}")
    if args.cache:
        print(f"world cache       : "
              f"{_fmt_cache_line(result.world_cache_hits, result.world_cache_misses, result.world_cache_invalid, result.world_cache_invalid_reasons)}")
    if result.reuse is not None:
        print(f"cell reuse        : {_fmt_reuse_line(result.reuse)}")
    if result.transport is not None and result.transport.mode != "inline":
        # Diagnostics on stderr: stdout stays byte-identical across
        # worker counts and transports.
        print(f"shard transport   : {result.transport.summary()}", file=sys.stderr)
    _print_faults(result.faults)
    _write_exports(
        args,
        csv_text=lambda: result.distribution_table().to_csv(),
        json_text=result.to_json,
        csv_label="distribution CSV",
        json_label="distribution JSON",
    )
    session.report()
    return 0


def _compile_plan_from_args(args: argparse.Namespace):
    """(compiled plan, kind label) from the shared ``plan`` flags."""
    from repro.plan import compile_ensemble, compile_scenarios, compile_study

    if args.spec or args.replicas is not None:
        spec = _ensemble_spec_from_args(args, replicas=args.replicas or 1)
        return compile_ensemble(spec, cache_dir=args.cache), "ensemble"
    if args.scenario:
        plan = compile_scenarios(
            _config_from_args(args),
            [_resolve_scenario(name) for name in args.scenario],
            cache_dir=args.cache,
        )
        return plan, "scenario sweep"
    return compile_study(_config_from_args(args), cache_dir=args.cache), "study"


def _cmd_plan_diff(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.plan import compile_study, diff_plans

    error = _cache_dir_error(args.cache)
    if error:
        print(error, file=sys.stderr)
        return 2
    try:
        plan, _kind = _compile_plan_from_args(args)
        baseline, _rest = plan.split_baseline()
        if baseline.n_shards == 0:
            # No baseline world in the variant plan: diff against the
            # plain campaign the flags describe.
            baseline = compile_study(_config_from_args(args), cache_dir=args.cache)
        diff = diff_plans(baseline, plan)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json_dump:
        print(json.dumps(diff.describe(), indent=2, sort_keys=True))
    else:
        print(diff.render())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError

    if args.plan_command == "diff":
        return _cmd_plan_diff(args)

    error = _cache_dir_error(args.cache)
    if error:
        print(error, file=sys.stderr)
        return 2
    try:
        plan, kind = _compile_plan_from_args(args)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    description = plan.describe()
    if args.json_dump:
        print(json.dumps(description, indent=2, sort_keys=True))
        return 0

    totals = description["totals"]
    print(f"plan              : {kind}")
    print(f"digest            : {plan.digest()}")
    print(f"worlds            : {totals['worlds']}")
    print(f"shards            : {totals['shards']}")
    print(f"planned runs      : {totals['runs']}")
    if plan.cache_dir:
        print(f"cache             : {plan.cache_dir}")
    print()
    print(f"{'world':>5s}  {'scenario':20s} {'seed':>6s} {'replica':>7s} "
          f"{'shards':>6s} {'runs':>6s}")
    for world in description["worlds"]:
        print(f"{world['world']:5d}  {world['scenario']:20s} {world['seed']:6d} "
              f"{world['replica']:7d} {world['shards']:6d} {world['runs']:6d}")
    if args.shards:
        print()
        print(f"{'shard':>5s} {'world':>5s}  {'env':28s} {'scale':>5s} "
              f"{'iters':>5s}  apps")
        for shard in plan.shards:
            print(f"{shard.index:5d} {shard.world:5d}  {shard.env_id:28s} "
                  f"{shard.scale:5d} {shard.iterations:5d}  "
                  f"{','.join(shard.apps)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting.report import generate_report

    text = generate_report(seed=args.seed, iterations=args.iterations)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    else:
        print(text)
    return 0


_EPILOG = """\
examples:
  python -m repro list
      show every experiment, environment, and application
  python -m repro experiment fig2
      regenerate Figure 2 (AMG2023 scaling) and verify its paper claims
  python -m repro run cpu-eks-aws amg2023 64
      one simulated AMG2023 run on EKS at 64 nodes
  python -m repro study --workers 4 --cache .repro-cache
      the default campaign, sharded over 4 processes with run caching
  python -m repro study --envs cpu-eks-aws --apps lammps --sizes 32,64
      a focused campaign over one environment
  python -m repro plan show --workers 4 --replicas 8
      compile the matching ensemble to its RunPlan and inspect it
      (worlds, shards, run counts, digest) without executing anything
  python -m repro scenario run --scenario spot-everything --workers 4
      the campaign under a what-if overlay, vs the baseline
  python -m repro ensemble run --replicas 8 --workers 4
      replicate the campaign over 8 seeds; distributions, not points
  python -m repro campaign run --spec campaign.json --workers 4
      find the cheapest config that meets the SLA: smoke-prune, grid,
      AB vs baseline, select the winner, publish the report
  python -m repro study --workers 4 --trace study-trace.json
      record spans across every worker; then
      `python -m repro trace summarize study-trace.json`
  python -m repro report -o report.md
      render the full evaluation report to markdown
"""

_STUDY_EPILOG = """\
examples:
  python -m repro study
      serial campaign: every environment and app, 2 iterations
  python -m repro study --workers 4
      shard (environment, size) cells over 4 worker processes;
      the dataset is byte-identical to the serial run
  python -m repro study --workers 4 --cache .repro-cache
      also cache every run; a repeat campaign replays from the cache
  python -m repro study --seed 7 --iterations 5 --output study.csv
      the paper-scale iteration count, dataset exported as CSV
  python -m repro study --output study.csv --json study.json
      the same dataset as CSV and as a JSON snapshot (summary + records)
  python -m repro study --workers 4 --chaos kill=0.1,transient=0.05
      a recovery drill: deterministically kill workers and inject
      transient failures; the retried dataset is still byte-identical
  python -m repro study --workers 4 --cache .repro-cache --resume
      continue an interrupted campaign: journaled cells re-attach,
      only unfinished cells simulate
"""


_PLAN_EPILOG = """\
examples:
  python -m repro plan show
      the default campaign as a RunPlan: one world, its (env, size)
      shards, and the explicit run count — nothing executes
  python -m repro plan show --scenario spot-everything --scenario price-war
      a 3-world scenario sweep (baseline injected first)
  python -m repro plan show --replicas 8 --scenario spot-everything
      the ensemble grid: scenario-major x replicas, replica r at seed+r
  python -m repro plan show --envs cpu-eks-aws --sizes 32,64 --shards
      list every compiled shard of a focused campaign
  python -m repro plan show --json
      the full compiled plan as JSON (worlds, shards, totals)
  python -m repro plan diff --scenario azure-price-spike
      classify every cell of the sweep plan: cells the scenario cannot
      touch are reusable (attachable from the baseline's cache), cells
      it perturbs are dirty, with the responsible overlay hooks named
  python -m repro plan diff --scenario spot-everything --json
      the same classification as JSON
"""


_SCENARIO_EPILOG = """\
examples:
  python -m repro scenario list
      show every registered what-if scenario
  python -m repro scenario run --scenario spot-everything --workers 4
      the default campaign under an all-spot market, vs the baseline
  python -m repro scenario run --scenario quota-crunch --scenario laggy-bills
      several counterfactual worlds in one sweep
  python -m repro scenario run --scenario degraded-efa \\
      --envs cpu-eks-aws --apps osu,minife --sizes 64 --output deltas.csv
      a focused sweep, delta table exported as CSV
  python -m repro scenario run --scenario my-scenario.json
      a scenario loaded from a JSON spec file instead of a preset
  python -m repro scenario run --scenario azure-price-spike \\
      --cache .repro-cache --incremental
      diff-aware sweep: the baseline runs first, then each scenario
      world re-simulates only the cells its overlays touch and attaches
      the rest from the cache — byte-identical, a fraction of the cost
"""


_ENSEMBLE_EPILOG = """\
examples:
  python -m repro ensemble run --replicas 8 --workers 4
      replicate the default campaign over 8 seeds and print
      distributions (mean ± 95% CI, p10/p50/p90) per cell
  python -m repro ensemble run --replicas 8 --scenario spot-everything
      seed grid x scenario grid: exceedance probabilities show how
      often the spot world keeps up with the seed study's numbers
  python -m repro ensemble run --replicas 4 --scenario my-scenario.json \\
      --envs cpu-eks-aws --apps amg2023 --sizes 32 --cache .repro-cache
      a focused ensemble with per-world summary caching (a warm
      re-run folds cached summaries and simulates nothing)
  python -m repro ensemble run --spec ensemble.json --output dist.csv --json dist.json
      the whole plan from a declarative EnsembleSpec JSON file,
      exported as CSV and JSON
"""


_CAMPAIGN_EPILOG = """\
examples:
  python -m repro campaign run --spec campaign.json --workers 4
      the five-stage pipeline: smoke-prune the search space, measure
      survivors at full replication (reusing everything smoke already
      simulated), AB against the baseline, select the cheapest config
      that meets the SLA, publish the report
  python -m repro campaign run --spec campaign.json \\
      --cache .repro-cache --output frontier.csv --json report.json
      persist the run cache across campaigns (a re-run from the same
      spec replays smoke from the world cache), export the Pareto
      frontier as CSV and the CampaignReport as JSON
  python -m repro campaign run --spec campaign.json --trace trace.json
      also record telemetry; the summary prints per-stage
      (campaign.smoke/grid/ab/select/publish) self-time rows
  python -m repro campaign show --spec campaign.json
      the campaign's digest, gates, budgets, and compiled stage shapes
      — without executing anything

a minimal spec file:
  {"sla": {"min_exceedance": 0.5, "max_cost_per_fom": 2.0},
   "scenarios": ["price-war", "spot-aws"],
   "env_ids": ["cpu-eks-aws"], "apps": ["amg2023"], "sizes": [64],
   "smoke": {"replicas": 1, "margin": 0.5}, "grid": {"replicas": 3}}
"""


def _campaign_spec_from_args(args: argparse.Namespace):
    """The :class:`CampaignSpec` named by ``--spec`` (shared run/show)."""
    from repro.campaigns import CampaignSpec

    return CampaignSpec.from_dict(_load_json_file(args.spec, "campaign spec"))


def _cmd_campaign_show(args: argparse.Namespace) -> int:
    from repro.plan import compile_ensemble

    spec = _campaign_spec_from_args(args)
    if args.json_dump:
        smoke_plan = compile_ensemble(spec.smoke_spec())
        grid_plan = compile_ensemble(spec.grid_spec(spec.scenarios))
        print(json.dumps(
            {
                "campaign": spec.to_dict(),
                "digest": spec.digest(),
                "smoke": smoke_plan.describe()["totals"],
                "grid_upper_bound": grid_plan.describe()["totals"],
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(f"campaign          : {spec.digest()}")
    print(f"objective         : {spec.objective.direction} {spec.objective.metric}")
    sla = spec.sla
    gates = [f"exceedance >= {sla.min_exceedance}",
             f"completion >= {sla.min_completion}"]
    if sla.max_cost_per_fom is not None:
        gates.append(f"cost/FOM <= {sla.max_cost_per_fom}")
    print(f"sla               : {', '.join(gates)}")
    print(f"scenarios         : {len(spec.scenarios)} "
          f"({', '.join(s.scenario_id for s in spec.scenarios) or 'baseline only'})")
    for stage, budget, plan in (
        ("smoke", spec.smoke, compile_ensemble(spec.smoke_spec())),
        ("grid", spec.grid, compile_ensemble(spec.grid_spec(spec.scenarios))),
    ):
        totals = plan.describe()["totals"]
        bound = " (upper bound before pruning)" if stage == "grid" else ""
        print(f"{stage:18s}: {budget.replicas} replica(s), margin {budget.margin} "
              f"-> {totals['worlds']} worlds, {totals['shards']} cells, "
              f"{totals['runs']} runs{bound}")
    print("stages            : smoke -> grid -> ab -> select -> publish")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError

    if args.campaign_command == "show":
        try:
            return _cmd_campaign_show(args)
        except (ConfigurationError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    # campaign run
    from repro.campaigns import CampaignRunner
    from repro.reporting.frontier import frontier_table

    error = _cache_dir_error(args.cache)
    if error:
        print(error, file=sys.stderr)
        return 2
    _apply_transport_flags(args)
    try:
        retry, chaos, resume = _fault_options(args)
        spec = _campaign_spec_from_args(args)
        runner = CampaignRunner(
            spec,
            workers=args.workers,
            cache_dir=args.cache,
            transport=args.transport,
            retry=retry,
            chaos=chaos,
            resume=resume,
        )
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _TraceSession(args) as session:
        result = runner.run()
    print(result.render())
    print()
    print(f"campaign digest   : {spec.digest()}")
    print(f"smoke             : {result.smoke.worlds} worlds folded, "
          f"{len(result.pruned)} candidates pruned, "
          f"{len(result.survivors)} survived")
    grid_line = f"grid              : {result.grid.worlds} worlds folded"
    if result.grid.reuse is not None:
        grid_line += f" ({_fmt_reuse_line(result.grid.reuse)})"
    print(grid_line)
    if args.cache:
        print(f"world cache       : "
              f"{_fmt_cache_line(result.smoke.world_cache_hits + result.grid.world_cache_hits, result.smoke.world_cache_misses + result.grid.world_cache_misses, result.smoke.world_cache_invalid + result.grid.world_cache_invalid)}")
    for label, stage_result in (("smoke transport", result.smoke),
                                ("grid transport", result.grid)):
        if stage_result.transport is not None and stage_result.transport.mode != "inline":
            # Diagnostics on stderr, like the study/ensemble lines.
            print(f"{label:18s}: {stage_result.transport.summary()}", file=sys.stderr)
    from repro.parallel.pool import FaultStats as _FaultStats

    campaign_faults = _FaultStats()
    for stage_result in (result.smoke, result.grid):
        if stage_result.faults is not None:
            campaign_faults.add(stage_result.faults)
    _print_faults(campaign_faults)
    _write_exports(
        args,
        csv_text=lambda: frontier_table(result).to_csv(),
        json_text=lambda: result.report.to_json() + "\n",
        csv_label="frontier CSV",
        json_label="campaign report",
    )
    session.report()
    return 0


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    """The fault-tolerance knobs shared by every executing subcommand."""
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="attempts per shard before the final inline-serial rescue "
        "(default: 3); transient failures retry with exponential backoff "
        "and deterministic jitter, fatal ones fail fast",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard deadline: a shard exceeding it is requeued onto "
        "a rebuilt worker pool (default: no deadline)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="re-attach cells a previous interrupted run journaled "
        "(requires --cache); the finished dataset is byte-identical to "
        "an uninterrupted run",
    )
    parser.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="deterministic fault injection for recovery drills, e.g. "
        "'kill=0.1,transient=0.05,seed=7' (kinds: kill, transient, "
        "corrupt, delay, abort; rates in [0,1]); a surviving run's "
        "dataset is byte-identical to an uninjected one",
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    """The ``--trace FILE`` flag shared by every executing subcommand."""
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record spans and counters for this run (including every "
        "worker process) and write the merged trace document here; "
        "inspect it with `repro trace summarize` / `repro trace chrome`. "
        "Results are byte-identical with or without tracing.",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'Usability Evaluation of "
        "Cloud for HPC Applications' (SC 2025)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, environments, apps")

    p_exp = sub.add_parser(
        "experiment",
        help="regenerate one table/figure",
        epilog="example: python -m repro experiment table4 --iterations 5",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_exp.add_argument("id", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--iterations", type=int, default=None)

    p_run = sub.add_parser(
        "run",
        help="run one app on one environment",
        epilog="example: python -m repro run gpu-aks-az lammps 128 --seed 3",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_run.add_argument("env", choices=sorted(ENVIRONMENTS))
    p_run.add_argument("app", choices=sorted(APPS))
    p_run.add_argument("scale", type=int)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--iteration", type=int, default=0)

    # Campaign selection + execution flags shared by `study` and
    # `scenario run` (parsed by _config_from_args either way).
    campaign_options = argparse.ArgumentParser(add_help=False)
    campaign_options.add_argument("--envs", help="comma-separated environment ids")
    campaign_options.add_argument("--apps", help="comma-separated app names")
    campaign_options.add_argument("--sizes", help="comma-separated scales")
    campaign_options.add_argument("--iterations", type=int, default=2)
    campaign_options.add_argument("--seed", type=int, default=0)
    campaign_options.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sharded execution (default: 1, serial)",
    )
    campaign_options.add_argument(
        "--cache",
        metavar="DIR",
        help="content-addressed run-cache directory; repeat campaigns "
        "replay cached runs instead of re-simulating (keys embed the "
        "scenario digest, so what-if worlds never collide)",
    )
    campaign_options.add_argument(
        "--transport",
        choices=("auto", "shm", "pickle"),
        default="auto",
        help="how shard results cross back from workers: shared-memory "
        "blocks (shm, zero-copy), plain pickling, or probe-and-prefer-"
        "shm (auto, the default); results are byte-identical either way",
    )
    campaign_options.add_argument(
        "--spill-mb",
        type=float,
        default=None,
        metavar="MB",
        help="spill result columns bigger than this to unlinked temp-"
        "file mmaps (out-of-core stores; default: keep everything in "
        "RAM).  Applies to this process and every worker",
    )
    _add_fault_flags(campaign_options)

    p_study = sub.add_parser(
        "study",
        help="run a study campaign",
        epilog=_STUDY_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[campaign_options],
    )
    p_study.add_argument("--output", help="write dataset CSV here")
    p_study.add_argument(
        "--json",
        dest="json_output",
        metavar="FILE",
        help="write a JSON snapshot (summary + every record) here",
    )
    _add_trace_flag(p_study)

    p_plan = sub.add_parser(
        "plan",
        help="the execution planner (compile campaigns without running them)",
        epilog=_PLAN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    plan_sub = p_plan.add_subparsers(dest="plan_command", required=True)
    p_plan_show = plan_sub.add_parser(
        "show",
        help="compile a study/sweep/ensemble to its RunPlan and print it",
        epilog=_PLAN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[campaign_options],
    )
    p_plan_show.add_argument(
        "--scenario",
        action="append",
        metavar="NAME|FILE",
        help="what-if world to include (repeatable): a preset name or a "
        "Scenario JSON spec file; compiles a scenario-sweep plan",
    )
    p_plan_show.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="compile an ensemble plan with N replicas per scenario "
        "(replica r at seed --seed + r)",
    )
    p_plan_show.add_argument(
        "--spec",
        metavar="FILE",
        help="compile an ensemble plan from an EnsembleSpec JSON file",
    )
    p_plan_show.add_argument(
        "--shards",
        action="store_true",
        help="also list every compiled shard",
    )
    p_plan_show.add_argument(
        "--json",
        dest="json_dump",
        action="store_true",
        help="print the compiled plan as JSON instead of tables",
    )
    p_plan_diff = plan_sub.add_parser(
        "diff",
        help="classify every cell of a compiled plan as reusable or dirty "
        "against its baseline (what incremental execution would attach)",
        epilog=_PLAN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[campaign_options],
    )
    p_plan_diff.add_argument(
        "--scenario",
        action="append",
        metavar="NAME|FILE",
        help="what-if world to include (repeatable): a preset name or a "
        "Scenario JSON spec file; diffs a scenario-sweep plan",
    )
    p_plan_diff.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="diff an ensemble plan with N replicas per scenario",
    )
    p_plan_diff.add_argument(
        "--spec",
        metavar="FILE",
        help="diff an ensemble plan from an EnsembleSpec JSON file",
    )
    p_plan_diff.add_argument(
        "--json",
        dest="json_dump",
        action="store_true",
        help="print the classification as JSON instead of text",
    )

    p_scenario = sub.add_parser(
        "scenario",
        help="what-if scenario engine (counterfactual studies)",
        epilog=_SCENARIO_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    scenario_sub = p_scenario.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser("list", help="list registered scenarios")
    p_scn_run = scenario_sub.add_parser(
        "run",
        help="run scenarios against the baseline and print the delta report",
        epilog=_SCENARIO_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[campaign_options],
    )
    p_scn_run.add_argument(
        "--scenario",
        action="append",
        required=True,
        metavar="NAME|FILE",
        help="scenario to run (repeatable): a preset name "
        "(see `repro scenario list`) or a path to a Scenario JSON spec file",
    )
    p_scn_run.add_argument(
        "--incremental",
        action="store_true",
        help="diff-aware execution (requires --cache): run the baseline "
        "first, then attach every cell a scenario cannot touch from the "
        "cell cache and simulate only the touched cells — byte-identical "
        "results, a fraction of the cost",
    )
    p_scn_run.add_argument("--output", help="write the delta table CSV here")
    p_scn_run.add_argument(
        "--json",
        dest="json_output",
        metavar="FILE",
        help="write the sweep as JSON (per-world summaries + delta rows) here",
    )
    _add_trace_flag(p_scn_run)

    p_ensemble = sub.add_parser(
        "ensemble",
        help="Monte-Carlo replication engine (distributions, not point estimates)",
        epilog=_ENSEMBLE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ensemble_sub = p_ensemble.add_subparsers(dest="ensemble_command", required=True)
    p_ens_run = ensemble_sub.add_parser(
        "run",
        help="replicate the campaign across a seed grid x scenario grid",
        epilog=_ENSEMBLE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[campaign_options],
    )
    p_ens_run.add_argument(
        "--replicas",
        type=int,
        default=3,
        help="independent replicas per scenario; replica r runs at "
        "seed (--seed + r) (default: 3)",
    )
    p_ens_run.add_argument(
        "--scenario",
        action="append",
        metavar="NAME|FILE",
        help="counterfactual world to replicate alongside the baseline "
        "(repeatable): a preset name or a Scenario JSON spec file",
    )
    p_ens_run.add_argument(
        "--spec",
        metavar="FILE",
        help="load the whole plan from an EnsembleSpec JSON file "
        "(overrides --replicas/--scenario and the campaign selection)",
    )
    p_ens_run.add_argument(
        "--incremental",
        action="store_true",
        help="diff-aware execution (requires --cache): run the baseline "
        "replicas first, then attach untouched cells from the cell cache",
    )
    p_ens_run.add_argument("--output", help="write the distribution table CSV here")
    p_ens_run.add_argument(
        "--json",
        dest="json_output",
        metavar="FILE",
        help="write the full distribution dataset as JSON here",
    )
    _add_trace_flag(p_ens_run)

    p_campaign = sub.add_parser(
        "campaign",
        help="staged experiment campaigns: smoke -> grid -> ab -> select -> publish",
        epilog=_CAMPAIGN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    campaign_sub = p_campaign.add_subparsers(dest="campaign_command", required=True)
    p_camp_run = campaign_sub.add_parser(
        "run",
        help="run the five-stage pipeline and publish the campaign report",
        epilog=_CAMPAIGN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_camp_run.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="the CampaignSpec JSON file: objective, SLA gates, scenario "
        "search space, per-stage budgets",
    )
    p_camp_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sharded execution (default: 1, serial); "
        "the frontier and the winner are byte-identical for any count",
    )
    p_camp_run.add_argument(
        "--cache",
        metavar="DIR",
        help="run-cache directory shared by both stages (default: a "
        "private temporary directory); persist it and a re-run from the "
        "same spec replays the smoke stage from the world cache",
    )
    p_camp_run.add_argument(
        "--transport",
        choices=("auto", "shm", "pickle"),
        default="auto",
        help="shard-result transport (see `repro study --help`)",
    )
    p_camp_run.add_argument(
        "--spill-mb",
        type=float,
        default=None,
        metavar="MB",
        help="out-of-core column threshold (see `repro study --help`)",
    )
    _add_fault_flags(p_camp_run)
    p_camp_run.add_argument("--output", help="write the Pareto frontier CSV here")
    p_camp_run.add_argument(
        "--json",
        dest="json_output",
        metavar="FILE",
        help="write the CampaignReport JSON artifact here",
    )
    _add_trace_flag(p_camp_run)
    p_camp_show = campaign_sub.add_parser(
        "show",
        help="print the campaign's gates, budgets, and compiled stage "
        "shapes without executing",
        epilog=_CAMPAIGN_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_camp_show.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="the CampaignSpec JSON file to inspect",
    )
    p_camp_show.add_argument(
        "--json",
        dest="json_dump",
        action="store_true",
        help="print the spec, digest, and stage totals as JSON",
    )

    p_bench = sub.add_parser(
        "bench",
        help="run the vectorization benchmark suite and print speedups",
        epilog=(
            "examples:\n"
            "  python -m repro bench\n"
            "      the full ~10.5k-record campaign: seed vs block\n"
            "      pipelines, plus rng/transport components\n"
            "  python -m repro bench --output BENCH_vector.json\n"
            "      also write the machine-readable artifact CI uploads\n"
            "  python -m repro bench --quick\n"
            "      a small smoke campaign (seconds, not minutes)"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_bench.add_argument(
        "--output",
        metavar="FILE",
        help="write the machine-readable benchmark payload here",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="run the reduced smoke campaign instead of the full one",
    )
    p_bench.add_argument(
        "--transport",
        action="store_true",
        help=(
            "run the zero-copy transport benchmark instead: shm "
            "descriptors vs pickled columns on a ~1M-record store, "
            "plus in-RAM vs spilled peak RSS"
        ),
    )
    p_bench.add_argument(
        "--records",
        type=int,
        default=1_000_000,
        metavar="N",
        help="store size for --transport (default: 1,000,000)",
    )
    _add_trace_flag(p_bench)

    p_trace = sub.add_parser(
        "trace",
        help="inspect trace documents written by --trace",
        epilog=(
            "examples:\n"
            "  python -m repro study --workers 4 --trace study-trace.json\n"
            "      record a trace while the campaign runs\n"
            "  python -m repro trace summarize study-trace.json\n"
            "      self-time by phase, counters, and per-worker coverage\n"
            "  python -m repro trace chrome study-trace.json -o study.chrome.json\n"
            "      convert to Chrome trace_event JSON for chrome://tracing\n"
            "      or https://ui.perfetto.dev"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_sum = trace_sub.add_parser(
        "summarize",
        help="print self-time by phase plus counters for a trace file",
    )
    p_trace_sum.add_argument("file", help="trace document written by --trace")
    p_trace_chrome = trace_sub.add_parser(
        "chrome",
        help="convert a trace file to Chrome trace_event JSON",
    )
    p_trace_chrome.add_argument("file", help="trace document written by --trace")
    p_trace_chrome.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="output path (default: <file>.chrome.json)",
    )

    p_report = sub.add_parser(
        "report",
        help="render the full evaluation report",
        epilog="example: python -m repro report --iterations 3 -o report.md",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--iterations", type=int, default=None)
    p_report.add_argument("-o", "--output", help="write markdown here")
    return parser


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import QUICK_CAMPAIGN, render_table as render_bench, run_bench, write_artifact

    with _TraceSession(args) as session:
        if args.transport:
            from repro.bench import render_transport_table, run_transport_bench

            render_bench = render_transport_table
            payload = run_transport_bench(
                n_records=args.records, repeats=1 if args.quick else 3
            )
        else:
            payload = run_bench(QUICK_CAMPAIGN if args.quick else None)
    if session.tracer is not None:
        from repro.telemetry import phase_rows

        payload["phases"] = phase_rows(session.doc())
    print(render_bench(payload))
    if args.output:
        write_artifact(payload, args.output)
        print(f"\nwrote {args.output}")
    session.report()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.telemetry import load_trace, render_summary, write_chrome_trace

    try:
        doc = load_trace(args.file)
        if args.trace_command == "summarize":
            print(render_summary(doc))
            return 0
        # trace chrome
        out = args.output or f"{args.file}.chrome.json"
        write_chrome_trace(doc, out)
        print(f"wrote {out} (load in chrome://tracing or https://ui.perfetto.dev)")
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "experiment": _cmd_experiment,
        "run": _cmd_run,
        "study": _cmd_study,
        "plan": _cmd_plan,
        "scenario": _cmd_scenario,
        "ensemble": _cmd_ensemble,
        "campaign": _cmd_campaign,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    try:
        status = main()
        # Flush here, so a reader that went away (``| head``) surfaces
        # inside this try rather than at interpreter shutdown.
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull: the shutdown flush would raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
