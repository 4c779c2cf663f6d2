"""One pass of the benchmark, in a fresh interpreter.

``run.py`` launches ``python -c BOOT SRC BENCH SPEC``.  BOOT imports
``repro.__main__`` first -- that import is the set-up every command pays,
sampled apart as ``setup_s`` -- and then calls :func:`main`, which times
one ``repro.__main__.main(argv)`` call and prints one JSON line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    """User+sys seconds of this process and of its reaped children: the
    pool workers, which the pool joins before the command returns."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(spec_json: str, imported: float) -> None:
    spec = json.loads(spec_json)
    if spec.get("setup_only"):
        sys.stdout.write(json.dumps({"imported": imported}) + "\n")
        return
    os.chdir(spec["cwd"])
    from repro.__main__ import main as repro_main

    harness = None
    recording = contextlib.nullcontext()
    if spec["trace"]:
        import layers

        harness = layers.install(log_dir=spec["cwd"])
        recording = harness.recording()
    out, err = io.StringIO(), io.StringIO()
    exit_code = error = None
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), recording:
            exit_code = repro_main(spec["argv"])
    except SystemExit as exc:
        error = f"SystemExit({exc.code})"
    except Exception as exc:  # a failed pass is reported, never raised
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open("stdout.txt", "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    result = {
        "imported": imported,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_mb,
        "exit_code": exit_code,
        "error": error,
        "stderr": err.getvalue(),
    }
    if harness is not None and error is None:
        result["layers"], result["split"] = harness.metrics(
            wall_s=wall, workers=spec["workers"]
        )
    sys.stdout.write(json.dumps(result) + "\n")
