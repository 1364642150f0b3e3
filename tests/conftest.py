"""Shared fixtures: small deterministic workloads and plans."""

import os

import numpy as np
import pytest

# Keep the test session hermetic: never read or write the user's
# persistent artifact store (~/.cache/repro).  Store tests construct
# explicit ArtifactStore instances rooted in tmp_path; an explicit
# REPRO_CACHE=on in the environment still wins.
os.environ.setdefault("REPRO_CACHE", "off")

from repro import kernels
from repro.sampling.plan import SamplingPlan
from repro.trace.address_space import AddressSpace
from repro.trace.engines import (
    MultiWorkingSetEngine,
    UniformWorkingSetEngine,
    WorkingSetComponent,
)
from repro.trace.phases import PhaseSpec, build_trace
from repro.trace.workload import Workload
from repro.vff.index import TraceIndex


def pytest_addoption(parser):
    parser.addoption(
        "--backend", choices=kernels.BACKENDS, default=None,
        help="Kernel backend for the whole session (scalar|native); "
             "defaults to REPRO_KERNEL_BACKEND or 'native'.  The "
             "kernel-equivalence tests exercise every backend regardless.")


@pytest.fixture(scope="session", autouse=True)
def _session_kernel_backend(request):
    choice = request.config.getoption("--backend")
    if choice is None:
        yield
        return
    if choice == "native" and not kernels.native_available():
        # An extension that cannot be built must skip loudly, not let
        # the silent scalar fallback masquerade as native coverage.
        pytest.skip("compiled kernel extension (repro.kernels._native) "
                    "could not be built: "
                    f"{kernels.native.unavailable_cause()}")
    with kernels.use_backend(choice):
        yield


def make_small_workload(seed=3, n_instructions=120_000, hot_lines=48,
                        cold_lines=256, cold_weight=0.08, name="small"):
    """A two-component workload: hot set + colder uniform set.

    The cold component's mean revisit interval (cold_lines / (0.4 *
    cold_weight) instructions) is kept well inside the inter-region gap,
    so its reuse tail dies before the Explorer-4 horizon — mirroring how
    the calibrated suite places components in explorer bands.
    """

    def factory():
        space = AddressSpace(seed=seed)
        hot = UniformWorkingSetEngine(
            space.allocate("hot", hot_lines), n_pcs=6)
        cold = UniformWorkingSetEngine(
            space.allocate("cold", cold_lines), n_pcs=4)
        engine = MultiWorkingSetEngine([
            WorkingSetComponent(hot, weight=1.0 - cold_weight, pc_base=0),
            WorkingSetComponent(cold, weight=cold_weight, pc_base=6),
        ])
        return [PhaseSpec("main", n_instructions, engine,
                          mem_fraction=0.4, branch_fraction=0.1,
                          mispredict_rate=0.04)]

    return Workload(name, factory, seed=seed)


@pytest.fixture
def small_workload():
    return make_small_workload()


@pytest.fixture
def small_plan(small_workload):
    return SamplingPlan(
        n_instructions=small_workload.trace.n_instructions, n_regions=3)


@pytest.fixture
def small_index(small_workload):
    return TraceIndex(small_workload.trace)


def brute_force_prev(lines):
    """Reference implementation of previous_access_index."""
    last = {}
    out = np.full(len(lines), -1, dtype=np.int64)
    for i, line in enumerate(lines):
        if line in last:
            out[i] = last[line]
        last[line] = i
    return out
