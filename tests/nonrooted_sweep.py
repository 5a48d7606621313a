"""Check ``iso_nonrooted`` on every ordered pair of the small rooted trees
against the brute-force search ``oracles.nonrooted_witness_brute``.

The trees are those that the states of ``randgen``'s
``exhaustive_reduced_pdfa_pool(2)`` generate, every reduced pDFA of one or
two states over {a, b}^±1: 198 distinct ones by
``oracles.canonical_rooted_key``, each taken at its first state in pool
order, so 39 204 ordered pairs.  On each pair, the verdict and the witness
length must be the oracle's, and a witness must verify.

Run as ``PYTHONPATH=src python tests/nonrooted_sweep.py [STRIDE]``: it
checks every STRIDE-th pair (by default every one), stops at the first
disagreement with a line naming the pair and exit status 1, and otherwise
prints the number of pairs checked and exits 0.
"""

from __future__ import annotations

import sys
from itertools import islice, product

from cftree import PDfa, iso_nonrooted, verify_nonrooted_witness
from oracles import canonical_rooted_key, nonrooted_witness_brute
from randgen import exhaustive_reduced_pdfa_pool


def distinct_trees() -> list[tuple[PDfa, str]]:
    """The first ``(pDFA, root)`` of the pool for each rooted tree."""
    first: dict[str, tuple[PDfa, str]] = {}
    for d in exhaustive_reduced_pdfa_pool(2):
        for root in sorted(d.states):
            first.setdefault(canonical_rooted_key(d, root), (d, root))
    return list(first.values())


def pairs(stride: int = 1):
    """Every ``stride``-th ordered pair ``(a, ra, b, rb)`` of the trees."""
    for (a, ra), (b, rb) in islice(product(distinct_trees(), repeat=2), None, None, stride):
        yield a, ra, b, rb


def disagreement(a: PDfa, ra: str, b: PDfa, rb: str) -> str | None:
    """What ``iso_nonrooted`` gets wrong on the pair, or None."""
    bound = 2 * len(a.states) * len(b.states) * (len(a.alphabet.letters | b.alphabet.letters) + 1)
    ok, witness = iso_nonrooted(a, ra, b, rb)
    brute = nonrooted_witness_brute(a, ra, b, rb, bound)
    if ok != (brute is not None):
        return f"verdict {ok}, brute force {brute}"
    if ok and len(witness.word) != len(brute):
        return f"witness {witness}, brute force {' '.join(brute)}"
    if ok and not verify_nonrooted_witness(a, ra, b, rb, witness.word):
        return f"witness {witness} does not verify"
    return None


def main(argv: list[str]) -> int:
    stride = int(argv[0]) if argv else 1
    checked = 0
    for a, ra, b, rb in pairs(stride):
        wrong = disagreement(a, ra, b, rb)
        if wrong is not None:
            print(f"{sorted(a.delta.items())} at {ra} against {sorted(b.delta.items())} at {rb}: {wrong}")
            return 1
        checked += 1
    print(f"{checked} pairs agree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
