"""Online incremental warming over live trace feeds.

A *live feed* is an unbounded source of
:class:`~repro.trace.record.TraceChunk` windows: a pipe carrying framed
chunks (:mod:`repro.live.feed`), an appended native container tailed
through :class:`~repro.traceio.reader.TraceReader`, or any in-process
iterable.  :class:`~repro.live.runner.LiveRunner` consumes the feed with
bounded memory and, at every *watermark* (a whole number of inter-region
gaps), refines each attached sampling strategy by exactly the regions
the new prefix completes — producing estimates that are bit-identical
to a from-scratch batch run over the same prefix
(``tests/test_live_equivalence.py`` is the pin).

Warm-up bundles and strategy results are published to the artifact
store under watermark-versioned keys (:mod:`repro.live.artifacts`);
``cache gc`` reclaims the superseded ones.  Sealed index epochs stay
in the index builder's spill files.
"""

from repro.live.feed import (
    chunk_trace,
    prefix_trace,
    read_frames,
    split_chunk,
    write_frame,
)
from repro.live.runner import (
    LiveRunner,
    LiveWatermark,
    LiveWorkload,
    PrefixWorkload,
    default_strategies,
)

__all__ = [
    "LiveRunner",
    "LiveWatermark",
    "LiveWorkload",
    "PrefixWorkload",
    "chunk_trace",
    "default_strategies",
    "prefix_trace",
    "read_frames",
    "split_chunk",
    "write_frame",
]
