"""The machine's speed of the moment, from a fixed reference computation.

The machine the benchmark runs on changes speed in phases that last from
seconds to tens of minutes, and every op of the library slows down with it.
A run therefore interleaves its ops with *chunks* of a fixed piece of work
that uses no ``cftree`` code: it builds a dictionary keyed by tuples of state
names and a set of state pairs, the kind of work the library's automata do.
No change to the library can change a chunk's cost, so the chunks' mean time
measures the machine alone.  Measured times are then scaled to a machine on
which a chunk takes ``CHUNK_MS``:

    scaled time = measured time * CHUNK_MS / mean time of the chunks near it

``Speed`` runs the chunks, outside the timed region, so that their time is a
fixed share of the time measured, and each stretch of the run is sampled as
much as it weighs in the measured sums.  An op is scaled by the chunks
run close to it in time, so that a group of ops that happened to meet more
slow stretches than the run as a whole is still scaled right.
"""

from __future__ import annotations

import bisect
import math
import time

#: The mean chunk time to which measured times are scaled: about what a chunk
#: takes on a 2-vCPU Intel Xeon VM in its fast phases.
CHUNK_MS = 3.0

#: How far from a measured stretch the chunks that scale it may lie.  Speed
#: phases last seconds or longer; a window of 1 s each side holds about 60
#: chunks at a 10% share.
WINDOW_S = 1.0

_NAMES = [f"r{i}" for i in range(3000)]


def chunk() -> int:
    n = len(_NAMES)
    delta = {}
    for i, p in enumerate(_NAMES):
        delta[(p, "a")] = _NAMES[(i * 7) % n]
        delta[(p, "b")] = _NAMES[(i * 13) % n]
    pairs = {(_NAMES[0], _NAMES[1])}
    for (p, _), q in delta.items():
        pairs.add((q, p))
    return len(pairs)


class Speed:
    """Chunks run to a fixed share of the time measured."""

    def __init__(self, share: float) -> None:
        self.share = share
        self.measured = 0.0
        self.chunk_s = 0.0
        self.starts: list[float] = []
        self.times: list[float] = []

    def after(self, seconds: float) -> None:
        """Account for ``seconds`` of measured time; run chunks until their
        total is ``share`` of all the time measured so far."""
        self.measured += seconds
        while self.chunk_s < self.share * self.measured or not self.times:
            t0 = time.perf_counter()
            chunk()
            t = time.perf_counter() - t0
            self.starts.append(t0)
            self.times.append(t)
            self.chunk_s += t

    def chunk_ms(self) -> float:
        return self.chunk_s / len(self.times) * 1e3

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """What a time measured from ``start`` to ``end`` is multiplied by:
        from the chunks that began within ``WINDOW_S`` of it, or from all
        of them by default.  A window always holds chunks unless a check ran
        for more than ``WINDOW_S``; then every chunk counts."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        times = self.times[lo:hi] or self.times
        return CHUNK_MS / 1e3 / (sum(times) / len(times))
