"""What ``import repro`` needs: the standard library and numpy, nothing else.

Each test starts a fresh interpreter, since this one has long since
imported whatever the other tests pulled in.
"""

import subprocess
import sys

#: With networkx blocked, the package imports, the CLI lists, and a
#: composite workflow is built and placed.
CLEAN_INSTALL = """
import sys
sys.modules["networkx"] = None

import repro
for name in repro.__all__:
    getattr(repro, name)

from repro.__main__ import main
from repro.workflows import PortabilityScorer
from repro.workflows.dag import mummi_style_workflow

assert main(["list"]) == 0
placement = PortabilityScorer(seed=0).place(mummi_style_workflow())
print("placed:", ",".join(placement))
"""

#: The top-level names of the modules ``import repro.__main__`` loads.
NEW_TOP_LEVEL_MODULES = """
import sys
before = set(sys.modules)
import repro.__main__
new = set(sys.modules) - before
print("\\n".join(sorted({name.partition(".")[0] for name in new})))
"""


def _python(code, env):
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
    )


def test_repro_runs_without_networkx(child_env):
    result = _python(CLEAN_INSTALL, child_env)
    assert result.returncode == 0, result.stderr
    assert "experiments:" in result.stdout
    placed = "placed: orchestrator,macro-sim,ml-selector,micro-sim,feature-db"
    assert placed in result.stdout


def test_cli_imports_only_stdlib_and_numpy(child_env):
    result = _python(NEW_TOP_LEVEL_MODULES, child_env)
    assert result.returncode == 0, result.stderr
    outside = {
        name for name in result.stdout.split()
        if name not in sys.stdlib_module_names
        and name not in {"numpy", "repro"}
        # Interpreter and numpy internals, present since before this test.
        and name not in {"__mp_main__", "cython_runtime"}
        and not name.startswith("_cython_")
    }
    assert not outside
