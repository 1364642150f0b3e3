"""Digests of every strategy's results, to compare two builds.

Prints one JSON object: each case's
``sha256(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))``,
plus ``"store-objects"``: for each batch artifact its recording stores
hold, the object digest (the key's fingerprint) and the payload's
SHA-256, sorted.  A change that must not move results prints the same
object as its parent; run it on each tree with ``PYTHONPATH`` at that
tree's ``src`` and diff the outputs::

    PYTHONPATH=src python benchmarks/result_digests.py > change.json
    PYTHONPATH=../parent/src python benchmarks/result_digests.py \
        > parent.json
    cmp parent.json change.json

``REPRO_KERNEL_BACKEND`` picks the backend (default ``native``).  The
cases, over the six quick benchmarks at 1.2M instructions and 4
regions:

* SMARTS, CoolSim, DeLorean and NaiveDSW, SMARTS and DeLorean with
  ``prefetcher=True`` and DeLorean with ``explorer_specs=()``, at 8 and
  512 MiB (84 results);
* DSE sweeps over {1, 8, 64, 512} MiB (default Explorers and
  ``explorer_specs=()``) and over {8, 64} MiB at ``l1_scale`` 0.25 and
  0.5, each run with no store, then recording into a fresh store, then
  replaying from it (72 reports);
* the suite runner's {1, 8, 64, 512} MiB sweep (6 reports);
* every watermark result of a 4-watermark mcf ``LiveRunner`` feed,
  in each index spill mode (48 results).

Live artifacts are keyed by a lineage that hashes each strategy's
attributes, so their store objects are left out.  About 8 s on the
native backend and 45 s on ``scalar`` (2 vCPUs).
"""

import hashlib
import json
import pathlib
import pickle
import sys
import tempfile

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                           / "src"))

from repro.__main__ import QUICK_NAMES  # noqa: E402
from repro.caches.hierarchy import paper_hierarchy  # noqa: E402
from repro.core.context import ExecutionContext  # noqa: E402
from repro.core.delorean import DeLorean  # noqa: E402
from repro.core.dse import DesignSpaceExploration  # noqa: E402
from repro.core.naive import NaiveDirectedWarming  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.runner import SuiteRunner  # noqa: E402
from repro.live import LiveRunner, chunk_trace  # noqa: E402
from repro.sampling.coolsim import CoolSim  # noqa: E402
from repro.sampling.smarts import Smarts  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402
from repro.util.units import MIB  # noqa: E402

CONFIG = ExperimentConfig(n_instructions=1_200_000, n_regions=4,
                          names=QUICK_NAMES)
SIZES = (8, 512)
SWEEP = (1, 8, 64, 512)
#: ``(label, sizes in MiB, l1_scale or None, DesignSpaceExploration
#: options)`` of each direct sweep.
SWEEPS = (
    ("dse", SWEEP, None, {}),
    ("dse-noexp", SWEEP, None, {"explorer_specs": ()}),
    ("dse-l1-0.25", (8, 64), 0.25, {}),
    ("dse-l1-0.5", (8, 64), 0.5, {}),
)
STRATEGIES = (
    ("SMARTS", Smarts, {}),
    ("CoolSim", CoolSim, {}),
    ("DeLorean", DeLorean, {}),
    ("NaiveDSW", NaiveDirectedWarming, {}),
    ("SMARTS-pf", Smarts, {"prefetcher": True}),
    ("DeLorean-pf", DeLorean, {"prefetcher": True}),
    ("DeLorean-noexp", DeLorean, {"explorer_specs": ()}),
)
LIVE_GAP = 300_000
LIVE_CHUNK = 77_777


def digest(result):
    return hashlib.sha256(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()


def hierarchy(size, l1_scale=None):
    kwargs = {} if l1_scale is None else {"l1_scale": l1_scale}
    return paper_hierarchy(size * MIB, scale=CONFIG.footprint_scale,
                           **kwargs)


def batch_cases(runner, name, scratch, stores):
    workload = runner._workload(name)
    plan = runner._plan_for(workload)
    context = ExecutionContext(workload, seed=CONFIG.seed)
    cases = {}
    for size in SIZES:
        for label, cls, options in STRATEGIES:
            result = cls(**options).run(workload, plan, hierarchy(size),
                                        context=context)
            cases[f"{name}/{label}/{size}"] = digest(result)
    for label, sizes, l1_scale, options in SWEEPS:
        configs = [hierarchy(size, l1_scale) for size in sizes]
        root = scratch / f"{name}-{label}"
        stores.append(root)
        for mode, store in (("cold", None),
                            ("record", ArtifactStore(root=root,
                                                     enabled=True)),
                            ("replay", ArtifactStore(root=root,
                                                     enabled=True))):
            report = DesignSpaceExploration(**options).run(
                workload, plan, configs, seed=CONFIG.seed,
                context=ExecutionContext(workload, seed=CONFIG.seed,
                                         store=store))
            cases[f"{name}/{label}/{mode}"] = digest(report)
    cases[f"{name}/runner-dse"] = digest(
        runner.run_dse(name, [size * MIB for size in SWEEP]))
    return cases


def live_cases(runner, scratch, stores):
    trace = runner._workload("mcf").trace
    cases = {}
    for mode in ("never", "auto", "always"):
        root = scratch / f"live-{mode}"
        stores.append(root)
        store = ArtifactStore(root=root, enabled=True)
        with LiveRunner(LIVE_GAP, hierarchy(8), name="mcf",
                        seed=CONFIG.seed, store=store, spill=mode) as live:
            for watermark in live.run(chunk_trace(trace, LIVE_CHUNK)):
                for strategy, result in watermark.results.items():
                    cases[f"live-{mode}/{watermark.watermark}/"
                          f"{strategy}"] = digest(result)
    return cases


def store_objects(roots):
    """``<object digest>:<payload sha256>`` of every batch artifact
    under ``roots``, sorted."""
    objects = set()
    for root in roots:
        store = ArtifactStore(root=root, enabled=True)
        for object_digest, header, _ in store.disk.entries():
            if not str(header.get("label", "")).startswith("live:"):
                objects.add(f"{object_digest}:{header['sha256']}")
    return sorted(objects)


def main():
    cases = {}
    with tempfile.TemporaryDirectory(prefix="result-digests-") as tmp:
        scratch = pathlib.Path(tmp)
        stores = []
        runner = SuiteRunner(CONFIG, store=ArtifactStore(
            root=scratch / "runner", enabled=False))
        for name in QUICK_NAMES:
            cases.update(batch_cases(runner, name, scratch, stores))
        cases.update(live_cases(runner, scratch, stores))
        runner.release()
        cases["store-objects"] = store_objects(stores)
    print(f"{len(cases) - 1} result digests, "
          f"{len(cases['store-objects'])} store objects", file=sys.stderr)
    print(json.dumps(cases, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
