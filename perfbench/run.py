#!/usr/bin/env python3
"""The repository benchmark: one workload, one closed loop, one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ensemble-k8s --seed 0 --seconds 28 --trace 0

A run measures one workload of ``workloads.WORKLOADS`` as a closed loop --
one client, one ``repro`` command at a time -- for ``--seconds`` seconds
and at least three passes.  Every pass is a fresh interpreter, the way a
CLI invocation runs: it imports ``repro.__main__`` and then times one
``repro.__main__.main(argv)`` call.  A pass counts only when its output
checks out.  The import -- the set-up every command pays -- is sampled
as ``setup_s`` by children that only import, run back to back.

The host's speed drifts by half within minutes and stalls in bursts of
a second or so; neither ever makes a pass faster.  So a time is reported
as the fastest pass (or set-up sample) of the run, scaled to a reference
host speed: the parent times a fixed :func:`yardstick` after every child,
and multiplies by the yardstick's reference time over its fastest run.
The result reads as seconds on a host where the yardstick takes
``YARDSTICK_REF_S``.

``--trace 0`` reports the end-to-end metrics.
``--trace 1`` adds two traced passes at the same seed and reports the
per-layer split, measured from outside the program (``layers.py``); the
two must agree on every count.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are for people.  README.md describes the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from workloads import DEFAULT_SEED, EXACT_COUNTS, PINNED, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: scratch space for the passes (caches, outputs), removed after each run
WORK_ROOT = ROOT / ".perfbench-work"

IMPORT_MARK = "perfbench: import"
IMPORTED_MARK = "perfbench: imported"
HOST_PREFIX = "perfbench: host "

#: ``python -c BOOT SRC BENCH SPEC``: everything up to ``imported`` is the
#: set-up every command pays; ``passrun.main`` then times the command
BOOT = f"""\
import sys, time
sys.path.insert(0, sys.argv[1])
sys.stderr.write("{IMPORT_MARK}\\n")
import repro.__main__
imported = time.perf_counter()
sys.stderr.write("{IMPORTED_MARK}\\n")
sys.path.append(sys.argv[2])
import passrun
passrun.main(sys.argv[3], imported)
"""

MIN_PASSES = 3
MAX_PASSES = 50
SETUP_SAMPLES = 7
TRACED_PASSES = 2
#: a run ends inside 180 s: no child runs past this, and no pass starts
#: unless one as long as the longest so far still fits
RUN_LIMIT_S = 165.0
#: the yardstick's time on the reference host: reported times are seconds
#: on a host running at the speed where one yardstick takes this long
YARDSTICK_REF_S = 0.030
#: end-to-end metrics that are times, reported as the scaled fastest sample
TIMES = ("wall_s", "cpu_s", "setup_s")


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads' reasons and every metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class _Cell:
    """One yardstick record."""

    __slots__ = ("env", "app", "scale", "value")

    def __init__(self, env: str, app: str, scale: int, value: float):
        self.env, self.app, self.scale, self.value = env, app, scale, value

    def key(self) -> str:
        return f"{self.env}/{self.app}/{self.scale}"


def yardstick() -> float:
    """Seconds for a fixed piece of work, best of three: objects built and
    grouped in a dict, sorting, JSON, hashing and NumPy arithmetic -- the
    mix a ``repro`` command runs.  Nothing in it comes from the program
    measured, so it tells how fast the host runs right now; it follows a
    pass's time far more closely than a bare arithmetic loop does."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        rng = random.Random(7)
        cells = [
            _Cell(f"env{i % 14}", f"app{i % 11}", 2 ** (i % 8), rng.random())
            for i in range(20_000)
        ]
        groups: dict[str, list[float]] = {}
        for cell in cells:
            groups.setdefault(cell.key(), []).append(cell.value)
        rows = sorted((key, sum(v) / len(v)) for key, v in groups.items())
        hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        a = np.arange(200_000, dtype=np.float64)
        for _ in range(20):
            a = np.sqrt(a * 1.0001 + 1.0)
        best = min(best, time.perf_counter() - t0)
    return best


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies from the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) == 8 else 0), sum(ticks)


def import_split(stderr: str) -> tuple[float, float]:
    """(dependency, repro) seconds: the ``-X importtime`` self times logged
    while BOOT imported ``repro.__main__``."""
    deps = own = 0.0
    inside = False
    for line in stderr.splitlines():
        if line == IMPORT_MARK:
            inside = True
        elif line == IMPORTED_MARK:
            break
        elif inside and line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue  # the column header
            module = fields[2].strip()
            seconds = int(fields[0]) / 1e6
            if module == "repro" or module.startswith("repro."):
                own += seconds
            else:
                deps += seconds
    return deps, own


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def _group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` still runs (zombies have ended)."""
    try:
        entries = os.listdir("/proc")
    except OSError:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return False
        return True
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(b")") + 2:].split()
        if len(fields) > 2 and fields[0] != b"Z" and int(fields[2]) == pgid:
            return True
    return False


def _wait_group(pgid: int, grace: float = 10.0) -> None:
    """Wait until every process of the group has ended: pool workers and
    the shared-memory resource tracker can outlive the pass briefly."""
    deadline = time.perf_counter() + grace
    killed = False
    while _group_alive(pgid):
        if time.perf_counter() > deadline:
            if killed:
                return
            _signal_group(pgid, signal.SIGKILL)
            killed = True
            deadline = time.perf_counter() + grace
        time.sleep(0.01)


def launch(cmd: list[str], *, cwd: Path, timeout: float):
    """Run one child to its end: (spawn instant, exit code or ``None`` on a
    timeout, stdout, stderr).

    The child leads a process group of its own, so a timeout kills it and
    every pool worker it forked; either way the group is waited out.
    """
    env = dict(os.environ, TMPDIR=str(cwd))
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        encoding="utf-8", errors="replace", start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        _signal_group(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code = None
    _wait_group(proc.pid)
    return t_spawn, code, out, err


def _last_json(text: str) -> dict | None:
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        value = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


class Bench:
    """One run: one workload at one seed, its passes and their tally."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.perf_counter()
        self.ticks = cpu_ticks()
        self.attempted = 0
        self.failed = 0
        #: why the run is not correct: failed passes and count mismatches
        self.problems: list[str] = []
        #: the output every pass must reproduce: pinned for the shipped
        #: seeds, else set by the run's first verified pass
        self.digest = PINNED.get((workload.name, seed))
        #: set-up samples, seconds
        self.setup: list[float] = []
        #: yardstick seconds: one before the first child, one after each
        self.yards: list[float] = [yardstick()]
        self.longest = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _child(self, spec: dict, *, importtime: bool = False):
        """Run one child, then a yardstick: (spawn instant, exit code,
        stdout, stderr)."""
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += ["-c", BOOT, str(SRC), str(BENCH), json.dumps(spec)]
        ran = launch(cmd, cwd=Path(spec["cwd"]), timeout=RUN_LIMIT_S - self.elapsed())
        self.yards.append(yardstick())
        return ran

    def scale(self) -> float:
        """The factor from this run's seconds to seconds at the reference
        host speed."""
        return YARDSTICK_REF_S / min(self.yards)

    def fits(self) -> bool:
        """Whether one more pass as long as the longest so far ends in time."""
        return self.elapsed() + 1.5 * self.longest + 5.0 < RUN_LIMIT_S

    def sample_setup(self) -> None:
        """SETUP_SAMPLES children that only import ``repro.__main__``, back
        to back, with bytecode already compiled."""
        for _ in range(SETUP_SAMPLES):
            t_spawn, code, out, err = self._child({"cwd": str(self.workdir), "setup_only": True})
            result = _last_json(out) if code == 0 else None
            if result is None:
                self.problems.append(f"a set-up sample exited {code}: {err.strip()[-400:]}")
                return
            self.setup.append(result["imported"] - t_spawn)

    def run_pass(self, *, traced: bool = False) -> dict | None:
        """One verified pass, or ``None`` when it failed (and was counted)."""
        w = self.workload
        self.attempted += 1
        cwd = self.workdir / f"pass-{self.attempted}"
        cwd.mkdir()
        spec = {
            "argv": w.argv(self.seed, str(cwd / "cache")),
            "cwd": str(cwd),
            "trace": traced,
            "workers": w.workers,
        }
        started = time.perf_counter()
        _, code, out, err = self._child(spec, importtime=traced)
        self.longest = max(self.longest, time.perf_counter() - started)
        result = _last_json(out) if code == 0 else None
        problem = self._verify(result, code, err, cwd)
        shutil.rmtree(cwd, ignore_errors=True)
        if problem is not None:
            self.failed += 1
            self.problems.append(f"pass {self.attempted}: {problem}")
            print(f"perfbench: pass {self.attempted} failed: {problem}", file=sys.stderr)
            return None
        if traced:
            result["import_split"] = import_split(err)
        return result

    def _verify(self, result, code, err: str, cwd: Path) -> str | None:
        w = self.workload
        if code is None:
            return "timed out"
        if result is None:
            return f"the pass process exited {code}: {err.strip()[-400:]}"
        if result["error"] is not None:
            return result["error"]
        if result["exit_code"] != 0:
            return f"the command exited {result['exit_code']}"
        if "fault recovery" in result["stderr"]:
            return "the pool had to recover: " + result["stderr"].strip()[-200:]
        faults = result.get("split", {}).get("faults")
        if faults:
            return f"recovery counters moved: {faults}"
        stdout_path = cwd / "stdout.txt"
        output_path = stdout_path if w.output == "stdout" else cwd / w.output
        if not output_path.is_file():
            return f"no {w.output} was written"
        output = output_path.read_bytes()
        problem = w.check(stdout_path.read_text(encoding="utf-8"), output)
        if problem is not None:
            return problem
        digest = hashlib.sha256(output).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return f"output sha256 {digest} is not {self.digest}"
        return None

    def measure(self, seconds: float) -> list[dict]:
        """Closed-loop passes for ``seconds`` and at least MIN_PASSES;
        returns the verified passes."""
        passes = []
        deadline = time.perf_counter() + seconds
        for tries in range(1, MAX_PASSES + 1):
            if not self.fits():
                break
            result = self.run_pass()
            if result is not None:
                passes.append(result)
            if tries >= MIN_PASSES and time.perf_counter() >= deadline:
                break
        return passes

    def host(self) -> dict[str, float]:
        """host.calib_s (median yardstick) and host.steal_frac over the run."""
        ticks = cpu_ticks()
        steal = 0.0
        if self.ticks and ticks and ticks[1] > self.ticks[1]:
            steal = (ticks[0] - self.ticks[0]) / (ticks[1] - self.ticks[1])
        return {"host.calib_s": statistics.median(self.yards), "host.steal_frac": steal}


def end_to_end(bench: Bench, passes: list[dict]) -> tuple[dict, dict]:
    """(metrics, their unscaled samples): each time is the fastest sample
    scaled to the reference host speed; peak RSS is the median pass's."""
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": bench.setup,
    }
    scale = bench.scale()
    metrics = {
        name: (min(v) * scale if name in TIMES else statistics.median(v)) if v else 0.0
        for name, v in samples.items()
    }
    return metrics, samples


def per_layer(bench: Bench, untraced: list[dict], traced: list) -> tuple[dict, dict]:
    """(metrics, self seconds by layer of the first traced pass)."""
    ok = [t for t in traced if t is not None]
    if not ok:
        return {}, {}
    for name in EXACT_COUNTS:
        seen = sorted({t["layers"][name] for t in ok})
        if len(seen) > 1:
            bench.problems.append(
                f"{name} differs between traced passes at seed {bench.seed}: {seen}"
            )
    metrics = {}
    for name, value in ok[0]["layers"].items():
        # Counts repeat exactly (checked above); times are averaged.
        metrics[name] = value if isinstance(value, int) else statistics.fmean(
            t["layers"][name] for t in ok
        )
    deps, own = zip(*(t["import_split"] for t in ok))
    metrics["setup.deps_s"] = statistics.fmean(deps)
    metrics["setup.repro_s"] = statistics.fmean(own)
    traced_wall = min(t["wall_s"] for t in ok)
    baseline = min((p["wall_s"] for p in untraced), default=traced_wall)
    metrics["trace.wall_s"] = traced_wall * bench.scale()
    metrics["trace.overhead_frac"] = traced_wall / baseline - 1.0
    metrics.update(bench.host())
    return metrics, ok[0]["split"]["layers"]


def print_end_to_end(bench: Bench, metrics: dict, samples: dict, units: dict) -> None:
    print(
        f"  times are the fastest sample x {bench.scale():.4f} (yardstick "
        f"{YARDSTICK_REF_S} s / fastest of {len(bench.yards)}, "
        f"median {statistics.median(bench.yards):.4f} s)"
    )
    for name, value in metrics.items():
        values = sorted(samples[name])
        extent = (
            f"n={len(values)}, unscaled min {values[0]:.4f}, "
            f"median {statistics.median(values):.4f}, max {values[-1]:.4f}"
            if values else "n=0"
        )
        print(f"  {name:12s} {value:10.4f} {units[name]:2s}  ({extent})")


def print_split(workload: Workload, layers: dict) -> None:
    layers = dict(layers)
    total = layers.pop("total", 0.0)
    layers["other"] = max(total - sum(layers.values()), 0.0)
    print(f"perfbench: self time by layer, traced pass 1 ({total:.3f} s over all processes)")
    for name, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        share = 100.0 * seconds / total if total else 0.0
        print(f"  {name:12s} {seconds:9.4f} s {share:6.2f} %")
    print("perfbench: predicted moves on this workload")
    for metric, effect in workload.predictions.items():
        print(f"  {metric:20s} -> {effect}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure one benchmark workload (see perfbench/README.md)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    if not (SRC / "repro" / "__main__.py").is_file():
        print(
            f"perfbench: no program to measure at {SRC / 'repro'}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    traced: list = []
    try:
        # Set-up is sampled as every command after a checkout's first pays it.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(SRC)],
            check=True, stdout=subprocess.DEVNULL,
        )
        bench = Bench(workload, args.seed, workdir)
        if not args.trace:
            bench.sample_setup()
        passes = bench.measure(args.seconds)
        if args.trace:
            traced = [bench.run_pass(traced=True) for _ in range(TRACED_PASSES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    if args.trace:
        metrics, layers = per_layer(bench, passes, traced)
    else:
        metrics, samples = end_to_end(bench, passes)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if metrics:
        bench.problems += [f"no value for {name}" for name in units if name not in metrics]
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(workload.name, "")
    print(f"perfbench: {workload.name}: {why}")
    print(
        f"perfbench: {workload.name} at seed {args.seed}: {bench.attempted} passes, "
        f"{bench.failed} failed; output sha256 {bench.digest}"
    )
    for problem in bench.problems:
        print(f"  problem: {problem}")
    if args.trace:
        if layers:
            print_split(workload, layers)
    else:
        print_end_to_end(bench, metrics, samples, units)
        print(HOST_PREFIX + json.dumps(bench.host()))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
