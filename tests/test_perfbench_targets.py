"""perfbench's traced passes wrap these names: they must keep resolving.

``perfbench/layers.py`` wraps every ``(module, function)`` in
``_module_targets`` and every ``(module, class, method)`` in
``_class_targets`` when ``--trace 1`` installs its layer spans.  A rename
or a deletion in ``src/`` breaks that traced pass; this test fails
first.  The file is compiled from its text, not imported, so nothing is
written under ``perfbench/``.
"""

import importlib
import types
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers() -> types.ModuleType:
    module = types.ModuleType("perfbench_layers")
    code = compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec")
    exec(code, module.__dict__)
    return module


def test_every_perfbench_wrap_target_resolves():
    layers = _load_layers()
    # The same lookups install() makes before it wraps anything.
    for module_name, func_name, _ in layers._module_targets("unused-log-dir"):
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
    for module_name, class_name, method, _ in layers._class_targets():
        owner = getattr(importlib.import_module(module_name), class_name)
        assert method in vars(owner), f"{module_name}.{class_name}.{method}"
