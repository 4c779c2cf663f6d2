"""Shared fixtures."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro
from repro.envs.registry import ENVIRONMENTS
from repro.sim.execution import ExecutionEngine


@pytest.fixture(scope="session")
def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports this ``repro``."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, path])))


@pytest.fixture
def engine() -> ExecutionEngine:
    return ExecutionEngine(seed=0)


@pytest.fixture
def eks_cpu():
    return ENVIRONMENTS["cpu-eks-aws"]


@pytest.fixture
def onprem_a():
    return ENVIRONMENTS["cpu-onprem-a"]


@pytest.fixture
def onprem_b():
    return ENVIRONMENTS["gpu-onprem-b"]


@pytest.fixture
def aks_gpu():
    return ENVIRONMENTS["gpu-aks-az"]
