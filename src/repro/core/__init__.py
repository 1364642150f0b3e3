"""DeLorean: directed statistical warming through time traveling.

The paper's primary contribution, built on the substrates in
``repro.trace`` / ``repro.caches`` / ``repro.statmodel`` / ``repro.vff`` /
``repro.cpu`` / ``repro.sampling``:

* :class:`~repro.core.scout.ScoutPass` — fast-forwards to each detailed
  region and records its *key cachelines* (plus reuses already visible in
  the detailed-warming window).
* :class:`~repro.core.explorer.ExplorerChain` — goes back in time:
  progressively deeper directed-profiling passes collect each key
  cacheline's last reuse (Explorer-1 via functional simulation, deeper
  Explorers via virtualized directed profiling with page-protection
  watchpoints).
* :class:`~repro.core.vicinity.VicinitySampler` — sparse random reuse
  sampling inside the engaged explorer windows.
* :class:`~repro.core.warming.DirectedCapacityPredictor` — DSW's capacity
  decision: key reuse distance -> StatStack stack distance vs cache size.
* :class:`~repro.core.analyst.AnalystPass` — detailed evaluation of a
  region under the Figure 3 classifier; the one Analyst of DeLorean, its
  sweeps and NaiveDSW (DSW predictor) and of CoolSim (per-PC
  predictor).
* :class:`~repro.core.delorean.DeLorean` — the full pipelined
  time-traveling strategy (Figure 4).
* :class:`~repro.core.dse.DesignSpaceExploration` — many parallel
  Analysts amortizing one warm-up (Section 6.4.2): a DeLorean run over
  several hierarchy configurations, driven by the same
  :class:`~repro.core.delorean.DeLoreanRun`.
"""

from repro.core.context import AccessWindow, ExecutionContext
from repro.core.scout import ScoutPass, ScoutReport
from repro.core.explorer import ExplorerChain, ExplorerSpec, ExplorationResult
from repro.core.vicinity import VicinitySampler
from repro.core.warming import DirectedCapacityPredictor, COLD_DISTANCE
from repro.core.analyst import AnalystPass
from repro.core.delorean import DeLorean
from repro.core.dse import DesignSpaceExploration, DSEReport
from repro.core.naive import NaiveDirectedWarming
from repro.core.coherence import (
    CacheTopology,
    KeyAccessOrigin,
    MISS_COHERENCE,
    ThreadAwareCapacityPredictor,
)
from repro.core.pipeline import pipeline_schedule

__all__ = [
    "AccessWindow",
    "ExecutionContext",
    "ScoutPass",
    "ScoutReport",
    "ExplorerChain",
    "ExplorerSpec",
    "ExplorationResult",
    "VicinitySampler",
    "DirectedCapacityPredictor",
    "COLD_DISTANCE",
    "AnalystPass",
    "DeLorean",
    "DesignSpaceExploration",
    "DSEReport",
    "NaiveDirectedWarming",
    "CacheTopology",
    "KeyAccessOrigin",
    "MISS_COHERENCE",
    "ThreadAwareCapacityPredictor",
    "pipeline_schedule",
]
