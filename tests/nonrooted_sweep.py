"""Check ``iso_nonrooted`` on every ordered pair of small rooted trees
against the brute-force search ``oracles.nonrooted_witness_brute``.

The trees are those that the states of ``randgen``'s exhaustive pools
generate.  There are three pools:
- every reduced pDFA of one or two states over {a, b}^±1, each tree taken
  once, at its first state in pool order: 198 distinct trees by
  ``oracles.canonical_rooted_key``, so 39 204 ordered pairs;
- every reduced pDFA of one to three states over {a}^±1, at every state:
  777 rooted pDFAs of 13 trees, so 603 729 ordered pairs;
- every reduced pDFA of one to three states over {c}, with c its own
  inverse, at every state: 37 rooted pDFAs of 2 trees, so 1369 pairs.
The first pool has many trees and few ways to write each.  The other two
have few trees, each written many ways, some with equivalent states, and
the search works on classes of those.  On each pair, the verdict and the
witness length must be the oracle's, which runs once per pair of trees, and
a witness must verify on the pair itself.

At scale no oracle is needed: ``family_disagreement`` checks the
relations that the verdicts must keep on ``randgen.nonrooted_families``,
pDFAs re-rooted and renamed from a few bases of 10^3 to 10^4 states.

Run as ``PYTHONPATH=src python tests/nonrooted_sweep.py [STRIDE]``: it
checks every STRIDE-th pair of each pool (by default every one), then the
families of ``SCALE_SIZES`` states.  It stops at the first disagreement
with a line naming it and exit status 1, and otherwise prints the number
of pairs checked in each pool and in the families and exits 0.
"""

from __future__ import annotations

import random
import sys
from itertools import islice, product

from cftree import (
    InvolutiveAlphabet,
    PDfa,
    involutive_closure,
    iso_nonrooted,
    iso_rooted,
    quotient,
    reduce_rooted_to_nonrooted,
    verify_nonrooted_witness,
)
from oracles import canonical_rooted_key, nonrooted_witness_brute
from randgen import exhaustive_reduced_pdfa_pool, nonrooted_families

# (name, most states, alphabet, every state or the first for each tree)
POOLS = (
    ("{a, b}^±1, 2 states", 2, involutive_closure(["a", "b"]), False),
    ("{a}^±1, 3 states", 3, involutive_closure(["a"]), True),
    ("{c}, 3 states", 3, InvolutiveAlphabet({"c"}, {"c": "c"}), True),
)


def rooted(max_states: int, alphabet: InvolutiveAlphabet, every: bool) -> list[tuple[PDfa, str, str]]:
    """``(pDFA, root, tree key)`` for every state of every pDFA of the pool,
    in pool order, or only for the first of each rooted tree."""
    out = []
    seen: set[str] = set()
    for d in exhaustive_reduced_pdfa_pool(max_states, alphabet):
        for root in sorted(d.states):
            key = canonical_rooted_key(d, root)
            if every or key not in seen:
                seen.add(key)
                out.append((d, root, key))
    return out


def disagreement(a: PDfa, ra: str, b: PDfa, rb: str, brute: tuple[str, ...] | None) -> str | None:
    """What ``iso_nonrooted`` gets wrong on the pair, or None, given the
    brute force's shortest witness for the two trees."""
    ok, witness = iso_nonrooted(a, ra, b, rb)
    if ok != (brute is not None):
        return f"verdict {ok}, brute force {brute}"
    if ok and len(witness.word) != len(brute):
        return f"witness {witness}, brute force {' '.join(brute)}"
    if ok and not verify_nonrooted_witness(a, ra, b, rb, witness.word):
        return f"witness {witness} does not verify"
    return None


# The base sizes of the families that the script checks after the pools.
SCALE_SIZES = (10000, 11000, 12000)


def family_disagreement(members: list[tuple[int, PDfa, str]]) -> str | None:
    """What the decisions get wrong on ``members``, ``(family, pDFA, root)``
    triples of ``randgen.nonrooted_families``, or None.

    On every ordered pair the non-rooted verdict must be "same family",
    which also makes it symmetric and transitive, and each witness must
    verify.  For each member x, with y and z the next two members in list
    order (cyclically), the rooted verdict on (x, y) and on (x, z) must be
    the non-rooted verdict on the pair lifted by
    ``reduce_rooted_to_nonrooted``, and the non-rooted verdict on (x, y) must
    not change when x is replaced by its ``quotient`` at the class of its
    root.
    """
    for (f, a, ra), (g, b, rb) in product(members, repeat=2):
        ok, witness = iso_nonrooted(a, ra, b, rb)
        if ok != (f == g):
            return f"members of families {f} and {g}: verdict {ok}"
        if ok and not verify_nonrooted_witness(a, ra, b, rb, witness.word):
            return f"members of family {f}: witness {witness} does not verify"
    n = len(members)
    for x, (f, a, ra) in enumerate(members):
        for y in (x + 1) % n, (x + 2) % n:
            _, b, rb = members[y]
            rooted, _ = iso_rooted(a, ra, b, rb)
            if iso_nonrooted(*reduce_rooted_to_nonrooted(a, ra, b, rb))[0] != rooted:
                return f"members {x} and {y}: rooted verdict {rooted}, the lift's differs"
        g, b, rb = members[(x + 1) % n]
        small, cls = quotient(a)
        if iso_nonrooted(small, cls[ra], b, rb)[0] != (f == g):
            return f"members {x} and {(x + 1) % n}: the quotient of the first changes the verdict"
    return None


def main(argv: list[str]) -> int:
    stride = int(argv[0]) if argv else 1
    for name, max_states, alphabet, every in POOLS:
        checked = 0
        brute: dict[tuple[str, str], tuple[str, ...] | None] = {}
        for (a, ra, ka), (b, rb, kb) in islice(product(rooted(max_states, alphabet, every), repeat=2), None, None, stride):
            if (ka, kb) not in brute:
                bound = 2 * len(a.states) * len(b.states) * (len(alphabet) + 1)
                brute[ka, kb] = nonrooted_witness_brute(a, ra, b, rb, bound)
            wrong = disagreement(a, ra, b, rb, brute[ka, kb])
            if wrong is not None:
                print(f"{sorted(a.delta.items())} at {ra} against {sorted(b.delta.items())} at {rb}: {wrong}")
                return 1
            checked += 1
        print(f"{name}: {checked} pairs agree")
    return 0


def check_families(sizes: tuple[int, ...]) -> int:
    """Run ``family_disagreement`` on the families of ``sizes``, seed 1."""
    members = nonrooted_families(random.Random(1), sizes)
    wrong = family_disagreement(members)
    if wrong is not None:
        print(f"families of {sizes} states: {wrong}")
        return 1
    print(f"families of {sizes} states: {len(members) ** 2} pairs agree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]) or check_families(SCALE_SIZES))
