"""``ExecutionOptions``: one validated value for every front-end.

How a plan executes (workers, cache, transport, retry ladder, chaos,
resume) is one frozen value.  These tests pin that it is checked once,
when it is built — so every front-end fails at construction, not deep
inside ``run()`` — and that no front-end or CLI subcommand re-declares
one of its knobs on its own.
"""

import argparse
import inspect
import re

import pytest

from repro import ExecutionOptions as RootExecutionOptions
from repro.__main__ import _execution_options, build_parser
from repro.campaigns import CampaignRunner, CampaignSpec
from repro.core.study import StudyConfig, StudyRunner
from repro.ensemble import EnsembleRunner, EnsembleSpec
from repro.errors import ConfigurationError
from repro.plan import ExecutionOptions, PlanExecutor, compile_study
from repro.scenarios import ScenarioSweep, scenario

#: the execution knobs :class:`ExecutionOptions` owns
OPTION_FIELDS = ("workers", "cache_dir", "transport", "retry", "chaos", "resume")

#: the CLI destinations of the shared execution flags
EXECUTION_DESTS = frozenset({
    "workers", "cache", "transport", "spill_mb",
    "max_retries", "shard_timeout", "resume", "chaos",
})

#: every subcommand that runs or compiles a plan, with minimal argv
EXECUTING_COMMANDS = {
    "study": ["study"],
    "scenario run": ["scenario", "run", "--scenario", "spot-everything"],
    "ensemble run": ["ensemble", "run"],
    "campaign run": ["campaign", "run", "--spec", "campaign.json"],
    "plan show": ["plan", "show"],
    "plan diff": ["plan", "diff"],
}

FRONT_ENDS = (StudyRunner, ScenarioSweep, EnsembleRunner, CampaignRunner, PlanExecutor)

_CONFIG = StudyConfig.smoke()

#: each front-end built from one options value, nothing executed
_CONSTRUCT = {
    "StudyRunner": lambda options: StudyRunner(_CONFIG, options),
    "ScenarioSweep": lambda options: ScenarioSweep(
        _CONFIG, [scenario("spot-everything")], options
    ),
    "EnsembleRunner": lambda options: EnsembleRunner(EnsembleSpec(), options),
    "CampaignRunner": lambda options: CampaignRunner(CampaignSpec(), options),
    "PlanExecutor": lambda options: PlanExecutor(compile_study(_CONFIG), options),
}


def test_defaults_are_serial_uncached_and_exported_from_the_root():
    options = ExecutionOptions()
    assert RootExecutionOptions is ExecutionOptions
    assert (options.workers, options.cache_dir, options.transport) == (1, None, "auto")
    assert (options.retry, options.chaos, options.resume) == (None, None, False)
    with pytest.raises(AttributeError):
        options.workers = 4  # frozen: one value, passed on unchanged


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"workers": 0}, "workers must be at least 1 (got 0)"),
        ({"workers": -2}, "workers must be at least 1 (got -2)"),
        ({"transport": "bogus"}, "unknown transport 'bogus'"),
        ({"resume": True}, "resume needs a cache directory"),
    ],
)
def test_out_of_range_options_are_rejected_when_built(bad, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        ExecutionOptions(**bad)


@pytest.mark.parametrize("front_end", sorted(_CONSTRUCT))
@pytest.mark.parametrize(
    "bad", [{"workers": 0}, {"transport": "bogus"}, {"resume": True}]
)
def test_every_front_end_raises_when_constructed(front_end, bad):
    """The check runs as the options are built, so a bad value fails the
    front-end's construction line, before anything executes."""
    with pytest.raises(ConfigurationError):
        _CONSTRUCT[front_end](ExecutionOptions(**bad))


@pytest.mark.parametrize("front_end", sorted(_CONSTRUCT))
def test_every_front_end_keeps_the_options_value_it_was_given(front_end, tmp_path):
    options = ExecutionOptions(workers=2, cache_dir=str(tmp_path), transport="pickle")
    assert _CONSTRUCT[front_end](options).options is options


def test_plan_executor_resume_needs_the_plans_cache(tmp_path):
    # The executor reads the cache from the compiled plan: options that
    # name a cache cannot resume a plan compiled without one.
    options = ExecutionOptions(cache_dir=str(tmp_path), resume=True)
    with pytest.raises(ConfigurationError, match="resume needs a cache directory"):
        PlanExecutor(compile_study(_CONFIG), options)


def test_incremental_modes_share_the_one_cache_error():
    spike = scenario("azure-price-spike")
    plan = compile_study(_CONFIG)
    attempts = {
        "incremental execution": lambda: PlanExecutor(plan, baseline=plan),
        "an incremental sweep": lambda: ScenarioSweep(
            _CONFIG, [spike], incremental=True
        ),
        "an incremental ensemble": lambda: EnsembleRunner(
            EnsembleSpec(scenarios=(spike,)), incremental=True
        ),
    }
    for mode, attempt in attempts.items():
        with pytest.raises(ConfigurationError) as err:
            attempt()
        assert str(err.value).startswith(f"{mode} needs a cache directory")


@pytest.mark.parametrize("cls", FRONT_ENDS, ids=lambda cls: cls.__name__)
def test_no_front_end_redeclares_an_execution_knob(cls):
    params = inspect.signature(cls.__init__).parameters
    assert not set(OPTION_FIELDS) & set(params)
    assert "options" in params
    assert "incremental" not in inspect.signature(PlanExecutor.__init__).parameters


def _subparser(parser: argparse.ArgumentParser, path: list[str]):
    for name in path:
        (subparsers,) = (
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        parser = subparsers.choices[name]
    return parser


def test_executing_subcommands_share_one_set_of_execution_flags():
    parser = build_parser()
    exposed = {
        command: frozenset(a.dest for a in _subparser(parser, argv[:2])._actions)
        & EXECUTION_DESTS
        for command, argv in EXECUTING_COMMANDS.items()
    }
    assert exposed == {command: EXECUTION_DESTS for command in EXECUTING_COMMANDS}


class _RecordingArgs:
    """A parsed namespace that records which attributes are read."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self.read: set[str] = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


@pytest.mark.parametrize("command", sorted(EXECUTING_COMMANDS))
def test_execution_options_reads_every_execution_flag(command):
    args = _RecordingArgs(build_parser().parse_args(EXECUTING_COMMANDS[command]))
    assert _execution_options(args) == ExecutionOptions()
    assert EXECUTION_DESTS <= args.read
