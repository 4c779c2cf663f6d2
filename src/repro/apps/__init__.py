"""The study's 11 applications and benchmarks (§2.8).

Each module implements one app as an :class:`~repro.apps.base.AppModel`:
the paper's FOM formula, scaling mode, problem configuration, and a
compute/communication performance model over the machine and fabric
substrates.
"""

from repro.apps.amg2023 import AMG2023
from repro.apps.base import AppModel, RunContext, straggler_factor
from repro.apps.kripke import Kripke
from repro.apps.laghos import Laghos
from repro.apps.lammps import LAMMPS
from repro.apps.minife import MiniFE
from repro.apps.mixbench import Mixbench
from repro.apps.mtgemm import MTGemm
from repro.apps.nodebench import SingleNodeBenchmark
from repro.apps.osu import OSUBenchmarks
from repro.apps.quicksilver import Quicksilver
from repro.apps.registry import APPS, app
from repro.apps.stream import Stream

__all__ = [
    "AMG2023",
    "APPS",
    "AppModel",
    "Kripke",
    "LAMMPS",
    "Laghos",
    "MTGemm",
    "MiniFE",
    "Mixbench",
    "OSUBenchmarks",
    "Quicksilver",
    "RunContext",
    "SingleNodeBenchmark",
    "Stream",
    "app",
    "straggler_factor",
]
