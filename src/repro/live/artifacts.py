"""Watermark-versioned store artifacts for live runs.

Batch artifacts are addressed purely by content fingerprints; a live
run adds a second axis.  Every published artifact carries a
``(lineage, watermark)`` pair:

* the *lineage* fingerprints everything that defines the run except the
  feed's length — workload name, seed, plan geometry, hierarchy, and
  each strategy's name, class and configuration — so every watermark of
  one feed shares it;
* the *watermark* is the number of completed inter-region gaps, and the
  key also pins ``content_fp`` (the exact prefix bytes) so a replayed
  feed that diverges cannot alias an old artifact.

The watermark is additionally encoded into the blob *label*
(``live:<kind>:<lineage12>#<k>``) so maintenance —
:func:`sweep_superseded`, ``cache ls``/``gc`` — can group and reclaim
superseded watermarks from the disk census alone, without decoding a
single payload.  Index epochs are never published: nothing reads one back.
"""

import re

from repro.store.fingerprint import fingerprint

#: Artifact kinds a live run publishes per watermark.
LIVE_KINDS = ("warmup", "result")

_LABEL_RE = re.compile(
    r"^live:(?P<kind>[a-z]+):(?P<lineage>[0-9a-f]{12})#(?P<wm>\d+)$")


def live_lineage(name, seed, gap_plan, hierarchy_config, strategies):
    """Fingerprint of the run identity shared by every watermark.

    ``gap_plan`` is the plan of one gap, which every watermark's plan
    repeats; ``strategies`` maps each name to its strategy instance.
    """
    return fingerprint({
        "artifact": "live-lineage",
        "name": str(name),
        "seed": int(seed),
        "plan": gap_plan,
        "hierarchy": hierarchy_config,
        "strategies": {name: _strategy_identity(strategy)
                       for name, strategy in strategies.items()},
    })


def _strategy_identity(strategy):
    """A strategy's class and configuration, as plain fingerprintable
    data: every instance attribute except the derived ``core_model``."""
    cls = type(strategy)
    return {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "config": {key: value for key, value in vars(strategy).items()
                   if key != "core_model"},
    }


def live_key(kind, lineage, watermark, content_fp, **extra):
    """Store key of one watermark artifact."""
    if kind not in LIVE_KINDS:
        raise ValueError(f"unknown live artifact kind {kind!r}")
    return {
        "artifact": f"live-{kind}",
        "lineage": lineage,
        "watermark": int(watermark),
        "content_fp": content_fp,
        **extra,
    }


def live_label(kind, lineage, watermark):
    """Blob label carrying the (kind, lineage, watermark) triple."""
    return f"live:{kind}:{lineage[:12]}#{int(watermark)}"


def parse_live_label(label):
    """``(kind, lineage12, watermark)`` or None for batch labels."""
    match = _LABEL_RE.match(label or "")
    if match is None:
        return None
    return (match.group("kind"), match.group("lineage"),
            int(match.group("wm")))


def watermark_census(store):
    """Live entries on disk, grouped ``(kind, lineage12) -> [(wm,
    digest, bytes), ...]`` (unsorted; from headers only)."""
    groups = {}
    for digest, header, size in store.disk.entries():
        parsed = parse_live_label(header.get("label"))
        if parsed is None:
            continue
        kind, lineage, watermark = parsed
        groups.setdefault((kind, lineage), []).append(
            (watermark, digest, size))
    return groups


def superseded_entries(store):
    """Yield ``(digest, bytes)`` of every live entry whose lineage has a
    higher watermark on disk (per kind; the top watermark survives), and
    of every entry of a kind no live run publishes any more."""
    for (kind, _), entries in watermark_census(store).items():
        top = (max(watermark for watermark, _, _ in entries)
               if kind in LIVE_KINDS else None)
        for watermark, digest, size in entries:
            if top is None or watermark < top:
                yield digest, size


def sweep_superseded(store):
    """Delete superseded watermark artifacts; ``(removed, bytes)``.

    A result or bundle for watermark ``k`` is strictly contained in its
    lineage's watermark ``k+1``; the incremental path never reads an old
    watermark (or an older version's index epoch) back: pure garbage.
    """
    removed = 0
    reclaimed = 0
    for digest, size in list(superseded_entries(store)):
        if store.disk.delete(digest):
            removed += 1
            reclaimed += size
    return removed, reclaimed
