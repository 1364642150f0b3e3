"""Shared machinery for sampling strategies.

:meth:`StrategyBase.run` is the one batch driver: ``begin``, then
``refine`` per region, then ``result`` — the calls a live feed makes
one watermark at a time, so the two paths cannot drift apart.
:func:`region_timing` times a classified region, for SMARTS and for
every Analyst.
"""

from repro.cpu.config import ProcessorConfig


class StrategyBase:
    """Common helpers: context plumbing and the batch :meth:`run`."""

    name = "abstract"

    def __init__(self, processor_config=None):
        self.processor_config = processor_config or ProcessorConfig()

    def context_for(self, workload, index=None, seed=0, store=None,
                    context=None):
        """The :class:`ExecutionContext` this run executes on.

        A caller-supplied context wins (the suite runner builds one per
        workload so every strategy shares the same trace views and
        spilled index); otherwise one is assembled from the legacy
        ``(workload, index, store, seed)`` arguments, which keeps the
        historical ``Strategy.run(workload, plan, hierarchy, ...)``
        call shape working unchanged.
        """
        if context is not None:
            return context
        # Deferred import: repro.core.analyst imports this module, so a
        # top-level import of repro.core.context would close a cycle.
        from repro.core.context import ExecutionContext

        return ExecutionContext(workload, index=index, store=store,
                                seed=seed)

    def run(self, workload, plan, hierarchy_config, index=None, seed=0,
            context=None):
        """Evaluate ``workload`` under ``plan``; returns the result of
        ``begin``, ``refine`` per region, then ``result``."""
        context = self.context_for(workload, index=index, seed=seed,
                                   context=context)
        run = self.begin(context, plan, hierarchy_config)
        for spec in plan.regions():
            run.refine(spec)
        return run.result(plan)


def region_timing(core_model, context, spec, classified):
    """Interval-model timing for a classified region: the one timing
    step of SMARTS's regions and of every Analyst's.

    Branch outcomes are materialized in the trace, so every strategy
    sees the identical mispredictions (the paper warms predictors
    identically through the 30 k detailed-warming window).
    """
    return core_model.region_timing(
        n_instructions=spec.region_end - spec.region_start,
        outcomes=classified.outcomes,
        outcome_instr=classified.outcome_instr,
        llc_hits=classified.llc_hits,
        n_mispredicts=context.region_mispredicts(spec),
    )
