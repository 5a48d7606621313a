"""Time ``iso_nonrooted`` on the two-tooth lines of ``randgen``, the inputs
on which a search over pairs of states queues a number of configurations
quadratic in ``n``, and show how the time grows with ``n``.

For each n = 100, 200, 400 and 800 it builds the pair, makes one call,
which builds both predecessor forms, and then times five more calls.  The
search over pairs of classes should grow linearly: the ratio between
successive sizes near 2, where a quadratic search reads near 4.

Run as ``PYTHONPATH=src python tests/two_tooth.py``: it prints one line per
n with the states of the first automaton, the median of the five calls in
ms, and the ratio of that median to the one of the size before.
"""

from __future__ import annotations

import statistics
import sys
import time

from cftree import iso_nonrooted
from randgen import two_tooth_lines

SIZES = (100, 200, 400, 800)


def search_ms(n: int, calls: int = 5) -> tuple[int, float]:
    """The states of the first automaton, and the median ms of ``calls``
    calls on the two-tooth lines of size ``n`` after one that builds the
    forms."""
    a, ra, b, rb = two_tooth_lines(n)
    assert iso_nonrooted(a, ra, b, rb) == (False, None)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        iso_nonrooted(a, ra, b, rb)
        times.append(time.perf_counter() - start)
    return len(a.states), statistics.median(times) * 1e3


def main() -> int:
    before = None
    for n in SIZES:
        states, ms = search_ms(n)
        ratio = f"{ms / before:5.2f}x" if before else "     -"
        print(f"n = {n:4d}  {states:5d} states  {ms:8.2f} ms  {ratio} the size before")
        before = ms
    return 0


if __name__ == "__main__":
    sys.exit(main())
