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

Run as ``PYTHONPATH=src python tests/nonrooted_sweep.py [STRIDE]``: it
checks every STRIDE-th pair of each pool (by default every one), stops at
the first disagreement with a line naming the pair and exit status 1, and
otherwise prints the number of pairs checked in each pool and exits 0.
"""

from __future__ import annotations

import sys
from itertools import islice, product

from cftree import InvolutiveAlphabet, PDfa, involutive_closure, iso_nonrooted, verify_nonrooted_witness
from oracles import canonical_rooted_key, nonrooted_witness_brute
from randgen import exhaustive_reduced_pdfa_pool

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


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
