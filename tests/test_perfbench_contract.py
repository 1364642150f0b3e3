"""The repository benchmark's tracer against the program it wraps.

``perfbench/tracing.py`` times layers from outside the program: it
replaces named methods and functions with span-recording wrappers and
puts the originals back afterwards.  A renamed or moved boundary breaks
``perfbench/run.py --trace 1``, so this pins every entry of its patch
table to the code and checks that a traced DeLorean batch, a CoolSim
batch, a DSE sweep (cold, then replayed from the store) and a live
DeLorean feed record the warm-up and per-pass spans, CoolSim's Analyst
nested in its regions.
"""

import importlib.util
import pathlib
import sys

import pytest

from conftest import make_small_workload

from repro.caches.hierarchy import paper_hierarchy
from repro.core.delorean import DeLorean
from repro.core.dse import DesignSpaceExploration
from repro.live import LiveRunner, chunk_trace
from repro.sampling.coolsim import CoolSim
from repro.sampling.plan import SamplingPlan
from repro.store import ArtifactStore

TRACING = (pathlib.Path(__file__).resolve().parents[1]
           / "perfbench" / "tracing.py")

SPANS = ("trace.generate", "core.warmup", "core.warmup.replay",
         "core.scout", "core.explorer.plan", "core.explorer",
         "core.vicinity", "core.analyst", "core.delorean.region")


@pytest.fixture(scope="module")
def tracing():
    path_before = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.path == path_before
    return module


def _current(owner, attribute):
    if isinstance(owner, type):
        return vars(owner)[attribute]
    return getattr(owner, attribute)


def test_every_patched_boundary_exists(tracing):
    for owner, attribute, _, _ in tracing._patch_table():
        if isinstance(owner, type):
            assert attribute in vars(owner), (owner.__qualname__,
                                              attribute)
        else:
            assert hasattr(owner, attribute), (owner.__name__, attribute)


def test_traced_runs_record_every_pass(tracing, tmp_path):
    originals = [(owner, attribute, _current(owner, attribute))
                 for owner, attribute, _, _ in tracing._patch_table()]
    hierarchy = paper_hierarchy(8 << 20)
    gap = 40_000
    with tracing.instrument(tracing.Tracer()) as tracer:
        # The trace builds inside the block, so generation is traced.
        workload = make_small_workload(n_instructions=2 * gap + 5_000)
        plan = SamplingPlan(n_instructions=workload.trace.n_instructions,
                            n_regions=2)
        DeLorean().run(workload, plan, hierarchy, seed=7)
        CoolSim().run(workload, plan, hierarchy, seed=7)
        configs = [paper_hierarchy(size << 20) for size in (1, 8)]
        for _ in ("cold", "replayed"):
            store = ArtifactStore(root=tmp_path / "store", enabled=True)
            DesignSpaceExploration().run(workload, plan, configs, seed=7,
                                         store=store)
        with LiveRunner(gap, hierarchy, name="small", seed=7,
                        strategies={"DeLorean": DeLorean()}) as runner:
            watermarks = runner.run(chunk_trace(workload.trace, 9_001))
    assert [w.watermark for w in watermarks] == [1, 2]
    recorded = {span[0] for span in tracer.spans}
    missing = [name for name in SPANS if name not in recorded]
    assert not missing, missing
    assert all(span[2] is not None for span in tracer.spans)
    # CoolSim's detailed regions run through the Analyst.
    spans = tracer.spans
    assert sum(span[0] == "core.analyst" and span[3] >= 0
               and spans[span[3]][0] == "sampling.coolsim.region"
               for span in spans) == plan.n_regions
    assert tracer.counts["core.scout.key_lines"] > 0
    assert tracer.counts["store.hits"] > 0
    for owner, attribute, original in originals:
        assert _current(owner, attribute) is original, attribute
