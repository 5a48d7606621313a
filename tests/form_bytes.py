"""Measure the memory of the predecessor form that a pDFA keeps for the
states its root reaches: the bytes one ``_build_predecessors`` call leaves
in its result, and its peak while it runs, per reached state, as
``tracemalloc`` traces them.

The automata are seeded random reduced pDFAs of 4000 states, all reachable
from the root, over 2 and 6 generators, that is 4 and 12 letters.  The
index and the reach are built before tracing starts, so only the form is
counted.

Run as ``PYTHONPATH=src python tests/form_bytes.py``: it prints one line
per alphabet with its letter count, the form's bytes per reached state and
the peak bytes per reached state.
"""

from __future__ import annotations

import random
import sys
import tracemalloc

from cftree import involutive_closure
from cftree.automata import _build_predecessors, _reach
from randgen import random_reduced_pdfa

GENERATORS = (2, 6)


def form_bytes(generators: int, n: int = 4000, seed: int = 1) -> tuple[int, float, float]:
    """The letter count, and the bytes per reached state that one
    ``_build_predecessors`` call on a random reduced pDFA of ``n`` states
    over ``generators`` generators keeps in its form and holds at its peak."""
    alphabet = involutive_closure([f"g{i}" for i in range(generators)])
    d, root = random_reduced_pdfa(random.Random(seed), n, alphabet)
    ix = d._indexed()
    keep = _reach(d, root)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        form = _build_predecessors(ix, keep)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    del form
    return len(ix.letters), (held - base) / len(keep), (peak - base) / len(keep)


def main() -> int:
    for generators in GENERATORS:
        letters, held, peak = form_bytes(generators)
        print(f"{letters:3d} letters  {held:6.1f} B per reached state in the form  {peak:6.1f} B at the peak")
    return 0


if __name__ == "__main__":
    sys.exit(main())
