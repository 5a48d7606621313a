"""Time cold calls: a ``quotient`` and an ``iso_nonrooted``, which build a
predecessor form from nothing, and a ``reroot_along_word``; and report how
long the keys of that form are.

The automata are seeded random reduced pDFAs of n = 1000 and 4000 states,
all reachable from the root, over 2 and 6 generators, that is 4 and 12
letters; the second automaton of a pair is the first re-rooted along a
readable word of up to 12 letters.  Each call gets fresh pDFAs that share
the index of the ones built beforehand, so it pays for the reducedness
check, the predecessor form, the refinement and the search or the
quotient, and not for the index.  The re-rooting moves the first
automaton's root along the pair's word on a fresh pDFA in the same way, so
it pays for the reducedness check, the walk and the restriction.  A figure
is the best of 7 calls.

Run as ``PYTHONPATH=src python tests/cold_costs.py``: it prints one line
per alphabet with its letter count and, at n = 1000 and then 4000, the ms
of a cold ``quotient``, the ms of a cold ``iso_nonrooted``, the ms of a
cold ``reroot_along_word`` and the mean bits of a key of the first
automaton's form.
"""

from __future__ import annotations

import random
import sys
import time

from cftree import PDfa, involutive_closure, iso_nonrooted, quotient, reroot_along_word
from cftree.automata import _predecessors
from randgen import random_reduced_pdfa

GENERATORS = (2, 6)
SIZES = (1000, 4000)
CALLS = 7


def _pair(generators: int, n: int, seed: int = 1) -> tuple[PDfa, str, PDfa, str, list[str]]:
    """A random reduced pDFA of ``n`` states over ``generators`` generators,
    its root, the pDFA re-rooted along a random readable word, its new root
    and that word; both indexes built."""
    rng = random.Random(seed)
    alphabet = involutive_closure([f"g{i}" for i in range(generators)])
    a, ra = random_reduced_pdfa(rng, n, alphabet)
    word, state = [], ra
    for _ in range(12):
        readable = [x for x in alphabet.sorted_letters() if (state, x) in a.delta]
        if not readable:
            break
        word.append(rng.choice(readable))
        state = a.delta[(state, word[-1])]
    b, rb = reroot_along_word(a, ra, word)
    a._indexed()
    b._indexed()
    return a, ra, b, rb, word


def _fresh(d: PDfa) -> PDfa:
    """A pDFA equal to ``d`` that shares its index and has kept nothing else."""
    return PDfa._from_index(d.alphabet, d._indexed())


def cold_ms(generators: int, n: int) -> tuple[float, float, float, float]:
    """The best ms of ``CALLS`` cold ``quotient``, ``iso_nonrooted`` and
    ``reroot_along_word`` calls on the pair of ``_pair``, and the mean bits
    of a key of the first automaton's form, for every state."""
    a, ra, b, rb, word = _pair(generators, n)
    quotients, searches, reroots = [], [], []
    for _ in range(CALLS):
        d = _fresh(a)
        start = time.perf_counter()
        quotient(d)
        quotients.append(time.perf_counter() - start)
        x, y = _fresh(a), _fresh(b)
        start = time.perf_counter()
        assert iso_nonrooted(x, ra, y, rb)[0]
        searches.append(time.perf_counter() - start)
        x = _fresh(a)
        start = time.perf_counter()
        reroot_along_word(x, ra, word)
        reroots.append(time.perf_counter() - start)
    keys = _predecessors(d, d._indexed())[3]
    best = (min(quotients) * 1e3, min(searches) * 1e3, min(reroots) * 1e3)
    return *best, sum(map(int.bit_length, keys)) / len(keys)


def main() -> int:
    for generators in GENERATORS:
        figures = [cold_ms(generators, n) for n in SIZES]
        quotients, searches, reroots, bits = (" / ".join(f"{x:7.2f}" for x in column) for column in zip(*figures))
        print(
            f"{2 * generators:3d} letters  at n = {' / '.join(map(str, SIZES))}:  quotient {quotients} ms  "
            f"iso_nonrooted {searches} ms  reroot {reroots} ms  key {bits} bits"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
