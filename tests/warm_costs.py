"""Time warm ``iso_nonrooted`` calls, which repeat their automata and roots,
and the ``_classes`` refinement inside them, on pairs shaped like the
benchmark's ``nonrooted-pairs``.

The pairs are seeded: a random reduced pDFA over {a, b}^±1 of n = 200, 400
and 800 states, all reachable from the root, beside a copy of it under a
random renaming of the states (``renamed``), or a copy re-rooted along a
random readable word of up to 32 letters and then renamed (``rerooted``);
and 2GAP instances of n = 32, 64 and 128 nodes lifted to non-rooted ones
(``lifted``).  Each pair gets one call that builds both predecessor forms;
then ``iso_nonrooted`` and ``_classes``, on the two sides the search
refines, are timed in turns.  A figure is the best of ``CALLS`` calls,
averaged over ``PAIRS`` pairs.

Run as ``PYTHONPATH=src python tests/warm_costs.py``: it prints one line
per kind and size with the kind, n, the ms of a warm ``iso_nonrooted`` and
the ms of its ``_classes`` call.
"""

from __future__ import annotations

import random
import sys
import time

from cftree import PDfa, involutive_closure, iso_nonrooted, reroot_along_word
from cftree.automata import _classes, _predecessors
from cftree.reductions import reduce_gap2_to_rooted_iso, reduce_rooted_to_nonrooted
from randgen import random_gap2, random_reduced_pdfa

KINDS = (("renamed", (200, 400, 800)), ("rerooted", (200, 400, 800)), ("lifted", (32, 64, 128)))
PAIRS = 3
CALLS = 40


def _renamed(rng: random.Random, d: PDfa, root: str) -> tuple[PDfa, str]:
    """``d`` under a random renaming of its states, and ``root``'s new name."""
    new = [f"t{i}" for i in range(len(d.states))]
    rng.shuffle(new)
    name = dict(zip(sorted(d.states), new))
    return PDfa(new, d.alphabet, {(name[p], x): name[q] for (p, x), q in d.delta.items()}), name[root]


def _word(rng: random.Random, d: PDfa, root: str, length: int = 32) -> list[str]:
    """A random readable word from ``root`` of up to ``length`` letters."""
    word, state = [], root
    for _ in range(length):
        readable = [x for x in d.alphabet.sorted_letters() if (state, x) in d.delta]
        if not readable:
            break
        word.append(rng.choice(readable))
        state = d.delta[(state, word[-1])]
    return word


def pair(kind: str, n: int, rng: random.Random) -> tuple[PDfa, str, PDfa, str]:
    """One pair of ``kind`` at size ``n``."""
    if kind == "lifted":
        return reduce_rooted_to_nonrooted(*reduce_gap2_to_rooted_iso(random_gap2(rng, n=n)))
    a, ra = random_reduced_pdfa(rng, n, involutive_closure(["a", "b"]), extra_density=0.6)
    if kind == "rerooted":
        return a, ra, *_renamed(rng, *reroot_along_word(a, ra, _word(rng, a, ra)))
    return a, ra, *_renamed(rng, a, ra)


def warm_ms(a: PDfa, ra: str, b: PDfa, rb: str) -> tuple[float, float]:
    """The best ms of ``CALLS`` warm ``iso_nonrooted`` calls on the pair, and
    of as many ``_classes`` calls on the sides that it refines."""
    iso_nonrooted(a, ra, b, rb)
    sides = [_predecessors(b, b._indexed(), rb), _predecessors(a, a._indexed(), ra)]
    searches, refinements = [], []
    for _ in range(CALLS):
        start = time.perf_counter()
        iso_nonrooted(a, ra, b, rb)
        searches.append(time.perf_counter() - start)
        start = time.perf_counter()
        _classes(sides)
        refinements.append(time.perf_counter() - start)
    return min(searches) * 1e3, min(refinements) * 1e3


def main() -> int:
    rng = random.Random(1)
    for kind, sizes in KINDS:
        for n in sizes:
            figures = [warm_ms(*pair(kind, n, rng)) for _ in range(PAIRS)]
            search, refinement = (sum(column) / PAIRS for column in zip(*figures))
            print(f"{kind:8s}  n = {n:3d}  iso_nonrooted {search:6.3f} ms  _classes {refinement:6.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
