"""Time ``iso_nonrooted`` on the two-tooth lines of ``randgen``, the inputs
on which a search over pairs of states queues a number of configurations
quadratic in ``n``, and show how the time grows with ``n``; then the same
on ``randgen``'s hub lines, on which the search over pairs of classes
still queues a quadratic number.

For each n = 100, 200, 400 and 800 it builds the pair, makes one call,
which builds both predecessor forms, and then times five more calls.  On
two-tooth lines the search over pairs of classes should grow linearly: the
ratio between successive sizes near 2, where a quadratic search reads near
4.  Hub lines read near 4 until the search climbs only to predecessors
that can pass.

Run as ``PYTHONPATH=src python tests/two_tooth.py``: for each family it
prints one line per n with the family, the states of the first automaton,
the median of the five calls in ms, and the ratio of that median to the
one of the size before.
"""

from __future__ import annotations

import statistics
import sys
import time

from cftree import iso_nonrooted
from randgen import hub_lines, two_tooth_lines

SIZES = (100, 200, 400, 800)
FAMILIES = {"two-tooth": two_tooth_lines, "hub": hub_lines}


def search_ms(family, n: int, calls: int = 5) -> tuple[int, float]:
    """The states of the first automaton, and the median ms of ``calls``
    calls on the pair of size ``n`` that ``family`` builds, after one that
    builds the forms."""
    a, ra, b, rb = family(n)
    assert iso_nonrooted(a, ra, b, rb) == (False, None)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        iso_nonrooted(a, ra, b, rb)
        times.append(time.perf_counter() - start)
    return len(a.states), statistics.median(times) * 1e3


def main() -> int:
    for name, family in FAMILIES.items():
        before = None
        for n in SIZES:
            states, ms = search_ms(family, n)
            ratio = f"{ms / before:5.2f}x" if before else "     -"
            print(f"{name:9s}  n = {n:4d}  {states:5d} states  {ms:8.2f} ms  {ratio} the size before")
            before = ms
    return 0


if __name__ == "__main__":
    sys.exit(main())
