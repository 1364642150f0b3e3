"""Figure 13: working-set curves (MPKI vs LLC size).

Paper: DeLorean tracks the SMARTS reference; lbm shows knees (positions
compressed by the scaled gap — see :mod:`repro.experiments.paper`),
cactusADM and leslie3d decline smoothly without a pronounced knee.
"""

import numpy as np

from conftest import emit
from repro.experiments import figures


def test_figure13(benchmark, sweep_runner):
    out = benchmark.pedantic(
        figures.figure13, args=(sweep_runner,), rounds=1, iterations=1)
    emit("figure13_working_sets", out["text"])
    for name, series in out["data"].items():
        smarts = np.asarray(series["smarts"])
        delorean = np.asarray(series["delorean"])
        # Curves decline with size and DeLorean tracks the reference.
        assert smarts[0] >= smarts[-1]
        gap = np.abs(smarts - delorean).mean()
        assert gap < max(3.0, 0.35 * smarts.max()), name
