"""Measure the memory of the predecessor form that a pDFA keeps for the
states its root reaches: the bytes one ``_build_predecessors`` call leaves
in its result, and its peak while it runs, per reached state, as
``tracemalloc`` traces them; and the bytes that one ``_predecessors`` call
leaves kept on the pDFA, which is the whole per-root entry.

The automata are seeded random reduced pDFAs of 4000 states, all reachable
from the root, over 2 and 6 generators, that is 4 and 12 letters.  The
index is built before tracing starts, and for the form alone the reach too,
so only the form, or only the kept entry, is counted.

Run as ``PYTHONPATH=src python tests/form_bytes.py``: it prints one line
per alphabet with its letter count, the form's bytes per reached state, the
peak bytes per reached state and the kept entry's bytes per reached state.
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from typing import Callable

from cftree import PDfa, involutive_closure
from cftree.automata import _build_predecessors, _predecessors, _reach
from randgen import random_reduced_pdfa

GENERATORS = (2, 6)


def _pdfa(generators: int, n: int, seed: int) -> tuple[PDfa, str]:
    """A random reduced pDFA of ``n`` states over ``generators`` generators,
    with its index built, and its root."""
    alphabet = involutive_closure([f"g{i}" for i in range(generators)])
    d, root = random_reduced_pdfa(random.Random(seed), n, alphabet)
    d._indexed()
    return d, root


def _traced(build: Callable[[], object]) -> tuple[int, int]:
    """The bytes that ``build()`` leaves held while its result lives, and
    the bytes it holds at its peak, as ``tracemalloc`` traces them.  A full
    collection first empties CPython's free lists, so that no object is
    taken from memory that an earlier call left behind untraced."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    del result
    return held - base, peak - base


def form_bytes(generators: int, n: int = 4000, seed: int = 1) -> tuple[int, float, float]:
    """The letter count, and the bytes per reached state that one
    ``_build_predecessors`` call on a random reduced pDFA of ``n`` states
    over ``generators`` generators keeps in its form and holds at its peak."""
    d, root = _pdfa(generators, n, seed)
    ix = d._indexed()
    keep = _reach(d, root)
    held, peak = _traced(lambda: _build_predecessors(ix, keep))
    return len(ix.letters), held / len(keep), peak / len(keep)


def kept_bytes(generators: int, n: int = 4000, seed: int = 1) -> float:
    """The bytes per reached state that one ``_predecessors`` call leaves
    kept on the pDFA of ``form_bytes``, its index built and nothing else."""
    d, root = _pdfa(generators, n, seed)
    held, _ = _traced(lambda: _predecessors(d, d._indexed(), root))
    return held / len(_reach(d, root))


def main() -> int:
    for generators in GENERATORS:
        letters, held, peak = form_bytes(generators)
        kept = kept_bytes(generators)
        print(
            f"{letters:3d} letters  {held:6.1f} B per reached state in the form  "
            f"{peak:6.1f} B at the peak  {kept:6.1f} B kept per root"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
