"""Gate metric policy: directions, floors, and the regression rule.

One place decides what "regressed" means for every gate metric the
bench schema carries, so ``benchmarks/bench.py --check``, the trend
report's drift flags and ``python -m repro report gate`` agree:

* **Direction.**  Wall seconds, peak RSS, pool retry/requeue
  counts, fault firings and other rates are *lower is better*; store
  hit rates (``store.hit_rate`` and ``store.hit_rate.<label>``) are
  *higher is better*.  Direction is derived from the metric name.
* **Floors.**  A change only counts when it clears both a relative
  ratio (15%) and an absolute floor sized to the metric's unit —
  0.25 s wall, 8 MB RSS, 0.02 for rates (which live in [0, 1]) and
  2 events for behavioral counts — so scheduler jitter and one stray
  retry never trip the gate, while a halved warm-start hit rate does,
  even when wall time is flat.
* **Coverage.**  A baseline metric the run no longer measures is a
  regression: a renamed or retired metric must leave the baseline in
  the same change, so nothing drops out of the gate silently.
"""

#: A gate metric regresses when it worsens past BOTH bounds: >15%
#: relative and more than the unit's absolute floor.
REGRESSION_RATIO = 1.15
FLOOR_SECONDS = 0.25
FLOOR_MB = 8.0
FLOOR_RATE = 0.02
FLOOR_COUNT = 2.0


def metric_floor(name):
    """The absolute change floor for one gate metric, by unit."""
    if name.endswith("_mb"):
        return FLOOR_MB
    if name.rsplit(".", 1)[-1].endswith("rate") or "hit_rate" in name:
        return FLOOR_RATE
    if name.startswith(("pool.", "fault")):
        return FLOOR_COUNT
    return FLOOR_SECONDS


def higher_is_better(name):
    """True for metrics where growth is an improvement (hit rates)."""
    return "hit_rate" in name


def classify(name, current, reference):
    """``-1`` regression, ``+1`` improvement past the floors, else 0."""
    floor = metric_floor(name)
    if higher_is_better(name):
        current, reference = reference, current   # mirror the rule
    delta = current - reference
    if delta > floor and current > reference * REGRESSION_RATIO:
        return -1
    if -delta > floor and current * REGRESSION_RATIO < reference:
        return 1
    return 0


def check_gate(suite, gate, base):
    """Compare one suite's flat gate dict against its baseline slot.

    Returns ``(regressions, notes)`` — regressions are formatted gate
    failures (a baseline metric that was not measured among them),
    notes are informational (new metrics and improvements worth
    folding into the baseline).
    """
    regressions, notes = [], []
    for name, current in sorted(gate.items()):
        reference = base.get(name)
        if reference is None:
            notes.append(f"{suite}.{name}: new metric "
                         f"({current:g}), not in baseline")
            continue
        verdict = classify(name, current, reference)
        if verdict < 0:
            if reference:
                moved = 100 * (current - reference) / reference
                direction = (f"{moved:+.0f}%")
            else:
                direction = "from zero"
            bound = 100 * (REGRESSION_RATIO - 1)
            sign = "-" if higher_is_better(name) else "+"
            regressions.append(
                f"{suite}.{name}: {current:g} vs baseline "
                f"{reference:g} ({direction}, "
                f"threshold {sign}{bound:.0f}%)")
        elif verdict > 0:
            notes.append(f"{suite}.{name}: improved {reference:g} "
                         f"-> {current:g}")
    for name in sorted(set(base) - set(gate)):
        regressions.append(f"{suite}.{name}: in baseline "
                           f"({base[name]:g}) but not measured")
    return regressions, notes


def monotonic_drift(values, name, window=3):
    """True when the last ``window`` points worsen monotonically and
    the total slide clears the metric's absolute floor — the trend
    report's early-warning flag for creep that individually stays
    under the per-run gate."""
    tail = [v for v in values if v is not None][-(window + 1):]
    if len(tail) < window + 1:
        return False
    worsening = ((lambda a, b: b < a) if higher_is_better(name)
                 else (lambda a, b: b > a))
    if not all(worsening(a, b) for a, b in zip(tail, tail[1:])):
        return False
    return abs(tail[-1] - tail[0]) > metric_floor(name)
