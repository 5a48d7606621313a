"""Measure the costs of the predecessor form, of the non-rooted search and
of building discs that no benchmark workload shows, in five blocks of seeded
instances.

- **Form bytes.** On random reduced pDFAs of 4000 states, all reachable
  from the root, over 2 and 6 generators, that is 4 and 12 letters: the
  bytes one ``_build_predecessors`` call leaves in its result and its peak
  while it runs, per reached state, as ``tracemalloc`` traces them; and the
  bytes one ``_predecessors`` call leaves kept on the pDFA, which is the
  whole per-root entry.  The index is built before tracing starts, and for
  the form alone the reach too.
- **Cold calls** (ROADMAP item 12).  The same pDFAs at n = 1000 and 4000,
  beside a copy re-rooted along a readable word of up to 12 letters.  Each
  call gets fresh pDFAs that share the index of the ones built beforehand,
  so a ``quotient`` or an ``iso_nonrooted`` pays for the reducedness check,
  the form, the refinement and the quotient or the search, and a
  ``reroot_along_word`` along the pair's word for the check, the walk and
  the restriction, none for the index.  A figure is the best of 7 calls;
  the line also gives the mean bits of a key of the first pDFA's form.
- **Warm calls** (ROADMAP item 7 reads the ``_classes`` times).  Pairs
  shaped like the benchmark's ``nonrooted-pairs``: a random reduced pDFA
  over {a, b}^±1 of n = 200, 400 and 800 states beside a renamed copy
  (``renamed``) or a copy re-rooted along a readable word of up to 32
  letters and renamed (``rerooted``); and 2GAP instances of 32, 64 and 128
  nodes lifted to non-rooted ones (``lifted``).  After one call that builds
  both forms, ``iso_nonrooted`` and ``_classes`` on the two sides the
  search refines are timed in turns; a figure is the best of 40 calls,
  averaged over 3 pairs.
- **Two-tooth and hub lines** (ROADMAP item 14 reads the hub lines).  For
  n = 100, 200, 400 and 800, the median of 5 ``iso_nonrooted`` calls after
  one that builds the forms, and its ratio to the size before.  A search
  over pairs of states is quadratic on two-tooth lines, and the search over
  pairs of classes should read near 2 per doubling; hub lines read near 4
  until the search climbs only to predecessors that can pass.
- **Discs** (ROADMAP aim 2: one walk builds every disc but a loaded one).
  The unfolding of a random reduced pDFA of 1000 states over {g0, g1}^±1,
  which grows about 1.25 times per level, at the least radii that give
  2000 and 20000 nodes, and of its mNFA view at the same radii; the
  unfolding of a random reduced pDFA of 30 states over {a, b}^±1, the
  size of the pDFAs that the benchmark's ``cli-docs`` unfolds, at the
  least radii that give 500 and 2000 nodes; the one-letter ray at radius
  4000; and ``end_cone`` at the root, ``reroot_disc`` at the root's first
  child and the constructor from the views, on the 1000-state pDFA's disc
  of at least 15000 nodes.  A figure is the best of 7 calls after an
  untimed one.

Run as ``PYTHONPATH=src python tests/costs.py``: it prints one line per
alphabet of the form and cold blocks, one per kind and size of the warm
block, one per family and size of the lines block, which is the slowest,
and one per operation and size of the disc block.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
import tracemalloc
from itertools import count
from typing import Callable, Iterator

import samples
from cftree import (
    DiscTree,
    PDfa,
    end_cone,
    involutive_closure,
    iso_nonrooted,
    pdfa_to_mnfa,
    quotient,
    reroot_along_word,
    reroot_disc,
    unfold_mnfa,
    unfold_pdfa,
)
from cftree.automata import _build_predecessors, _classes, _predecessors, _reach
from cftree.reductions import reduce_gap2_to_rooted_iso, reduce_rooted_to_nonrooted
from randgen import hub_lines, random_gap2, random_reduced_pdfa, readable_word, renamed_pdfa, two_tooth_lines

GENERATORS = (2, 6)
COLD_SIZES = (1000, 4000)
WARM_KINDS = (("renamed", (200, 400, 800)), ("rerooted", (200, 400, 800)), ("lifted", (32, 64, 128)))
LINE_SIZES = (100, 200, 400, 800)
DISC_SIZES = (2000, 20000)
SMALL_DISC_SIZES = (500, 2000)
RAY_RADIUS = 4000
DERIVED_SIZE = 15000


def _pdfa(generators: int, n: int, rng: random.Random) -> tuple[PDfa, str]:
    """A random reduced pDFA of ``n`` states over ``generators`` generators,
    with its index built, and its root."""
    d, root = random_reduced_pdfa(rng, n, involutive_closure([f"g{i}" for i in range(generators)]))
    d._indexed()
    return d, root


def _ms(call: Callable[..., object], *args: object) -> float:
    """The ms that one ``call(*args)`` takes."""
    start = time.perf_counter()
    call(*args)
    return (time.perf_counter() - start) * 1e3


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


def form_bytes(generators: int) -> tuple[int, float, float]:
    """The letter count, and the bytes per reached state that one
    ``_build_predecessors`` call keeps in its form and holds at its peak."""
    d, root = _pdfa(generators, 4000, random.Random(1))
    ix = d._indexed()
    keep = _reach(d, root)
    held, peak = _traced(lambda: _build_predecessors(ix, keep))
    return len(ix.letters), held / len(keep), peak / len(keep)


def kept_bytes(generators: int) -> float:
    """The bytes per reached state that one ``_predecessors`` call leaves
    kept on the pDFA of ``form_bytes``, its index built and nothing else."""
    d, root = _pdfa(generators, 4000, random.Random(1))
    held, _ = _traced(lambda: _predecessors(d, d._indexed(), root))
    return held / len(_reach(d, root))


def form_block() -> Iterator[str]:
    """One line per alphabet: its letters, and the form's bytes per reached
    state held, at the peak and kept per root."""
    for generators in GENERATORS:
        letters, held, peak = form_bytes(generators)
        yield (
            f"{letters:3d} letters  {held:6.1f} B per reached state in the form  "
            f"{peak:6.1f} B at the peak  {kept_bytes(generators):6.1f} B kept per root"
        )


def _fresh(d: PDfa) -> PDfa:
    """A pDFA equal to ``d`` that shares its index and has kept nothing else."""
    return PDfa._from_index(d.alphabet, d._indexed())


def _isomorphic(*pair: object) -> None:
    """``iso_nonrooted(*pair)``, which must find the pair isomorphic."""
    assert iso_nonrooted(*pair)[0]


def cold_ms(generators: int, n: int, repeats: int = 7) -> tuple[float, float, float, float]:
    """The best ms of ``repeats`` cold ``quotient``, ``iso_nonrooted`` and
    ``reroot_along_word`` calls, and the mean bits of a key of the first
    pDFA's form, for every state."""
    rng = random.Random(1)
    a, ra = _pdfa(generators, n, rng)
    word = readable_word(rng, a, ra, 12)
    b, rb = reroot_along_word(a, ra, word)
    quotients, searches, reroots = [], [], []
    for _ in range(repeats):
        quotients.append(_ms(quotient, _fresh(a)))
        searches.append(_ms(_isomorphic, _fresh(a), ra, _fresh(b), rb))
        reroots.append(_ms(reroot_along_word, _fresh(a), ra, word))
    keys = _predecessors(a, a._indexed())[3]
    return min(quotients), min(searches), min(reroots), sum(map(int.bit_length, keys)) / len(keys)


def cold_block(sizes: tuple[int, ...] = COLD_SIZES, repeats: int = 7) -> Iterator[str]:
    """One line per alphabet: at each of ``sizes``, the best ms of
    ``repeats`` cold calls and the mean bits of a key."""
    for generators in GENERATORS:
        figures = [cold_ms(generators, n, repeats) for n in sizes]
        quotients, searches, reroots, bits = (" / ".join(f"{x:7.2f}" for x in column) for column in zip(*figures))
        yield (
            f"{2 * generators:3d} letters  at n = {' / '.join(map(str, sizes))}:  quotient {quotients} ms  "
            f"iso_nonrooted {searches} ms  reroot {reroots} ms  key {bits} bits"
        )


def warm_pair(kind: str, n: int, rng: random.Random) -> tuple[PDfa, str, PDfa, str]:
    """One pair of ``kind`` at size ``n``."""
    if kind == "lifted":
        return reduce_rooted_to_nonrooted(*reduce_gap2_to_rooted_iso(random_gap2(rng, n=n)))
    a, ra = random_reduced_pdfa(rng, n, involutive_closure(["a", "b"]), extra_density=0.6)
    if kind == "rerooted":
        return a, ra, *renamed_pdfa(rng, *reroot_along_word(a, ra, readable_word(rng, a, ra, 32)))
    return a, ra, *renamed_pdfa(rng, a, ra)


def warm_ms(a: PDfa, ra: str, b: PDfa, rb: str, repeats: int = 40) -> tuple[float, float]:
    """The best ms of ``repeats`` warm ``iso_nonrooted`` calls on the pair,
    and of as many ``_classes`` calls on the sides that it refines."""
    iso_nonrooted(a, ra, b, rb)
    sides = [_predecessors(b, b._indexed(), rb), _predecessors(a, a._indexed(), ra)]
    searches, refinements = [], []
    for _ in range(repeats):
        searches.append(_ms(iso_nonrooted, a, ra, b, rb))
        refinements.append(_ms(_classes, sides))
    return min(searches), min(refinements)


def warm_block(kinds: tuple = WARM_KINDS, repeats: int = 40, pairs: int = 3) -> Iterator[str]:
    """One line per kind and size of ``kinds``: the best ms of ``repeats``
    warm ``iso_nonrooted`` and ``_classes`` calls, averaged over ``pairs``
    pairs."""
    rng = random.Random(1)
    for kind, sizes in kinds:
        for n in sizes:
            figures = [warm_ms(*warm_pair(kind, n, rng), repeats) for _ in range(pairs)]
            search, refinement = (sum(column) / pairs for column in zip(*figures))
            yield f"{kind:8s}  n = {n:3d}  iso_nonrooted {search:6.3f} ms  _classes {refinement:6.3f} ms"


def lines_block() -> Iterator[str]:
    """One line per family and size: the states of the first automaton,
    the median ms of a warm call and its ratio to the size before."""
    for name, family in (("two-tooth", two_tooth_lines), ("hub", hub_lines)):
        before = None
        for n in LINE_SIZES:
            a, ra, b, rb = family(n)
            assert iso_nonrooted(a, ra, b, rb) == (False, None)
            ms = statistics.median(_ms(iso_nonrooted, a, ra, b, rb) for _ in range(5))
            ratio = f"{ms / before:5.2f}x" if before else "     -"
            yield f"{name:9s}  n = {n:4d}  {len(a.states):5d} states  {ms:8.2f} ms  {ratio} the size before"
            before = ms


def _radius_for(d: PDfa, root: str, size: int) -> int:
    """The least radius at which the unfolding of ``d`` from ``root`` holds
    at least ``size`` nodes."""
    return next(r for r in count() if len(unfold_pdfa(d, root, r)) >= size)


def disc_block(
    sizes: tuple[int, ...] = DISC_SIZES,
    ray: int = RAY_RADIUS,
    derived: int = DERIVED_SIZE,
    repeats: int = 7,
    small_sizes: tuple[int, ...] = SMALL_DISC_SIZES,
) -> Iterator[str]:
    """One line per operation and size: the nodes and radius of the disc it
    builds, and the best ms of ``repeats`` calls after one untimed call."""
    d, root = random_reduced_pdfa(random.Random(1), 1000, involutive_closure(["g0", "g1"]), extra_density=0.3)
    d._indexed()
    m = pdfa_to_mnfa(d)
    calls: list[tuple[str, Callable[..., DiscTree], tuple]] = []
    for size in sizes:
        r = _radius_for(d, root, size)
        calls += [("unfold_pdfa", unfold_pdfa, (d, root, r)), ("unfold_mnfa", unfold_mnfa, (m, root, r))]
    small, small_root = random_reduced_pdfa(random.Random(1), 30, involutive_closure(["a", "b"]), extra_density=0.6)
    calls += [("unfold_pdfa", unfold_pdfa, (small, small_root, _radius_for(small, small_root, n))) for n in small_sizes]
    calls.append(("ray", unfold_pdfa, (samples.ray(), "u", ray)))
    t = unfold_pdfa(d, root, _radius_for(d, root, derived))
    calls.append(("end_cone", end_cone, (t, t.root)))
    calls.append(("reroot_disc", reroot_disc, (t, t.children[t.root][0][1])))
    calls.append(("DiscTree", DiscTree, (t.radius, t.root, t.labels, t.children, t.alphabet)))
    for name, call, args in calls:
        disc = call(*args)
        ms = min(_ms(call, *args) for _ in range(repeats))
        yield f"{name:11s}  {len(disc):6d} nodes  radius {disc.radius:4d}  {ms:8.3f} ms"


def main() -> int:
    for block in (form_block, cold_block, warm_block, lines_block, disc_block):
        for line in block():
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
