"""§3.2: hookup times (job start to application start).

Reproduces the paper's numbers:

* Azure GPU: ~43/30/20/10 s at 4/8/16/32 nodes (decreasing!);
* Azure CPU: ~50/100/200/400+ s at 32/64/128/256 (linear in nodes);
* other clouds: 3–4 s (GPU) and 10–15 s (CPU), flat across sizes.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentOutput
from repro.network.hookup import hookup_block
from repro.reporting.compare import Expectation
from repro.reporting.tables import Table

GPU_NODE_SIZES = (4, 8, 16, 32)
CPU_NODE_SIZES = (32, 64, 128, 256)
PAPER_AZURE_GPU = {4: 43.0, 8: 30.0, 16: 20.0, 32: 10.0}
PAPER_AZURE_CPU = {32: 50.0, 64: 100.0, 128: 200.0, 256: 400.0}


def _mean_hookup(cloud: str, gpu: bool, nodes: int, seed: int, iterations: int) -> float:
    return float(np.mean(hookup_block(cloud, gpu, nodes, seed=seed, iterations=iterations)))


def run(seed: int = 0, iterations: int = 10) -> ExperimentOutput:
    table = Table(
        title="Hookup time by cloud and size (seconds)",
        columns=("Cloud", "Accelerator", *(str(s) for s in CPU_NODE_SIZES)),
        caption="GPU rows use node sizes 4/8/16/32; CPU rows 32/64/128/256.",
    )
    data: dict[tuple[str, bool], dict[int, float]] = {}
    for cloud in ("aws", "az", "g", "p"):
        for gpu, sizes in ((True, GPU_NODE_SIZES), (False, CPU_NODE_SIZES)):
            row = {n: _mean_hookup(cloud, gpu, n, seed, iterations) for n in sizes}
            data[(cloud, gpu)] = row
            table.add(cloud, "GPU" if gpu else "CPU",
                      *(f"{v:.1f}" for v in row.values()))

    def azure_gpu_matches() -> bool:
        row = data[("az", True)]
        return all(
            0.6 * expect <= row[n] <= 1.5 * expect
            for n, expect in PAPER_AZURE_GPU.items()
        ) and row[4] > row[32]

    def azure_cpu_matches() -> bool:
        row = data[("az", False)]
        return all(
            0.6 * expect <= row[n] <= 1.5 * expect
            for n, expect in PAPER_AZURE_CPU.items()
        ) and row[256] > row[32]

    def others_flat() -> bool:
        for cloud in ("aws", "g"):
            gpu_row = data[(cloud, True)]
            cpu_row = data[(cloud, False)]
            if not all(1.0 <= v <= 8.0 for v in gpu_row.values()):
                return False
            if not all(5.0 <= v <= 25.0 for v in cpu_row.values()):
                return False
            # Scale is not a factor: spread under 2x across sizes.
            if max(cpu_row.values()) > 2.0 * min(cpu_row.values()):
                return False
        return True

    expectations = [
        Expectation("hookup", "Azure GPU hookup ~43/30/20/10 s and decreasing with size",
                    azure_gpu_matches, "§3.2"),
        Expectation("hookup", "Azure CPU hookup ~50/100/200/400 s, linear in nodes",
                    azure_cpu_matches, "§3.2"),
        Expectation("hookup", "other clouds flat at 3-4 s (GPU) / 10-15 s (CPU)",
                    others_flat, "§3.2"),
    ]
    return ExperimentOutput(
        experiment_id="hookup",
        title="Hookup times",
        table=table,
        expectations=expectations,
    )
