"""Rooted and non-rooted isomorphism of deterministic context-free trees.

Inputs are reduced pDFAs with designated states.  Rooted isomorphism is
language equality of the designated states, decided by breadth-first search
over the product of the two automata; a failure comes with a shortest word
readable from exactly one side.  Non-rooted isomorphism searches a finite
configuration graph whose configurations pair a state of the first automaton
with a candidate node label of the second and an optional excluded branch;
an accepting path names a node at which re-rooting the second tree makes the
two rooted trees isomorphic.  Both searches and the state equivalence run on
integer indexes of the two pDFAs over their merged alphabet, so letter ids,
out-letter bit masks and successor columns agree between the sides.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

from .alphabet import merge_alphabets
from .automata import PDfa, _reach, _require_pair
from .errors import UnknownStateError
from .rerooting import reroot_along_word
from .unfolding import Word


@dataclass(frozen=True)
class Witness:
    """A shortest word readable from exactly one of the designated states."""

    word: Word
    side: str  # "left" or "right": which automaton reads it

    def __str__(self) -> str:
        return " ".join(self.word)


@dataclass(frozen=True)
class NonRootedWitness:
    """Word naming the node at which re-rooting the second tree matches the first."""

    word: Word

    def __str__(self) -> str:
        return " ".join(self.word)


def _classes(sides: list[tuple]) -> tuple[list[int], list[list[int]], list[list[tuple[int, int]]], list[int]]:
    """Partition refinement on a disjoint union of index parts.

    Each side is ``(order, index)``, the indexes over one alphabet; ``order``
    lists the ids kept, successors included, and the union numbers them side
    after side.  Returns the union's masks and columns, each state's ascending
    ``(letter, source)`` predecessors, and its block in the coarsest partition
    that separates out-masks and is stable under every letter (Hopcroft 1971;
    Valmari and Lehtinen 2008 for partial functions).  Masks and columns may
    be the index's own lists, so callers only read them.
    """
    if len(sides) == 1 and sides[0][0] == range(len(sides[0][1].masks)):
        # One whole index is already the union: refine its own lists.
        masks, succ = sides[0][1].masks, sides[0][1].succ
    else:
        masks, succ = [], [[] for _ in sides[0][1].succ]
        for order, ix in sides:
            pos = {p: j for j, p in enumerate(order, len(masks))} | {-1: -1}  # -1: no successor
            masks += map(ix.masks.__getitem__, order)
            for column, col in zip(succ, ix.succ):
                column += [pos[col[p]] for p in order]
    preds: list[list[tuple[int, int]]] = [[] for _ in masks]
    for i, col in enumerate(succ):
        for s, t in enumerate(col):
            if t >= 0:
                preds[t].append((i, s))
    by_mask: dict[int, int] = {}
    block = [by_mask.setdefault(m, len(by_mask)) for m in masks]
    members: list[set[int]] = [set() for _ in by_mask]
    for s, b in enumerate(block):
        members[b].add(s)
    pending = set(range(len(members)))
    while pending:
        sources: dict[int, list[int]] = defaultdict(list)
        for t in members[pending.pop()]:
            for i, s in preds[t]:
                sources[i].append(s)
        for hit_states in sources.values():
            hit: dict[int, list[int]] = defaultdict(list)
            for s in hit_states:
                hit[block[s]].append(s)
            for b, part in hit.items():
                if len(part) == len(members[b]):
                    continue
                members[b].difference_update(part)
                new = len(members)
                members.append(set(part))
                for s in part:
                    block[s] = new
                # Hopcroft: a block not waiting to split others queues only
                # its smaller half.
                pending.add(b if b not in pending and len(members[b]) < len(part) else new)
    return masks, succ, preds, block


def language_classes(*automata: PDfa) -> list[dict[str, int]]:
    """Group the states of one or more pDFAs by the language they read.

    One integer partition refinement (``_classes``) on the disjoint union of
    the automata's indexes over their merged alphabet, starting from the
    blocks of equal out-masks.  Returns one map per automaton from state
    to class id: two states get the same id exactly when they generate the
    same language.  A state that only transitions name raises
    ``UnknownStateError``, as in ``quotient``.
    """
    if not automata:
        return []
    alphabet = reduce(merge_alphabets, (d.alphabet for d in automata))
    indexes = [d._indexed(alphabet) for d in automata]
    for d, ix in zip(automata, indexes):
        if len(ix.names) > len(d.states):  # ids past those are states only transitions name
            raise UnknownStateError(f"state {ix.names[len(d.states)]!r} is not in the automaton")
    block = _classes([(range(len(ix.names)), ix) for ix in indexes])[3]
    starts = accumulate((len(ix.names) for ix in indexes), initial=0)
    return [dict(zip(ix.names[: len(d.states)], block[i:])) for d, ix, i in zip(automata, indexes, starts)]


def iso_rooted(
    a: PDfa, p_root: str, b: PDfa, q_root: str
) -> tuple[bool, Witness | None]:
    """Decide rooted isomorphism of the trees generated from two states.

    Equivalent to language equality of the designated states.  On failure
    returns a shortest separating word, found by BFS over reachable state
    pairs: the first pair with different out-sets, extended by a letter
    readable on one side only.  A state that only transitions name raises
    ``UnknownStateError`` when it is reachable from the root, as in ``trim``.
    """
    alphabet = _require_pair(a, p_root, b, q_root)
    ia, ib = a._indexed(alphabet), b._indexed(alphabet)
    for d, ix, root in ((a, ia, p_root), (b, ib, q_root)):
        if len(ix.names) > len(d.states):  # ids past those are states only transitions name
            _reach(d, root)
    letters, mask_a, succ_a, mask_b, succ_b = ia.letters, ia.masks, ia.succ, ib.masks, ib.succ
    k, nb = len(letters), len(ib.names)
    start = ia.ids[p_root] * nb + ib.ids[q_root]
    # A pair's code is p * nb + q; its parent link is code * k + letter.
    parent: dict[int, int] = {start: -1}
    queue = deque([start])
    while queue:
        code = queue.popleft()
        pa, qb = divmod(code, nb)
        ma, mb = mask_a[pa], mask_b[qb]
        if ma != mb:
            sym = ma ^ mb
            i = (sym & -sym).bit_length() - 1
            side = "left" if (ma >> i) & 1 else "right"
            path: list[str] = [letters[i]]
            link = parent[code]
            while link != -1:
                code, j = divmod(link, k)
                path.append(letters[j])
                link = parent[code]
            path.reverse()
            return False, Witness(tuple(path), side)
        bits = ma
        while bits:
            i = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            nxt = succ_a[i][pa] * nb + succ_b[i][qb]
            if nxt not in parent:
                parent[nxt] = code * k + i
                queue.append(nxt)
    return True, None


def iso_nonrooted(
    a: PDfa, p_root: str, b: PDfa, q_root: str
) -> tuple[bool, NonRootedWitness | None]:
    """Decide non-rooted isomorphism of the trees generated from two states.

    Searches a configuration graph.  A configuration ``(p, q, back)`` stands
    for: some node v labeled q of the second tree, with the branch ``back``
    toward v's already-matched child excluded, generates the part of the
    tree that must match the tree of p.
    Steps guess a predecessor transition of q and climb toward the root;
    acceptance at the root closes the isomorphism.  The step letters along a
    shortest accepting path, reversed, spell the root-to-v word, returned as
    a witness.  On the cached indexes, one ``_classes`` call refines the
    reachable states, a configuration is one integer, its base set is the mask
    of q less ``back``, and starts and predecessors go in state-name order.
    """
    alphabet = _require_pair(a, p_root, b, q_root)
    ia, ib = a._indexed(alphabet), b._indexed(alphabet)
    letters, inverse = ia.letters, ia.inverse
    reach_a = sorted(_reach(a, p_root))
    reach_b = sorted(_reach(b, q_root), key=ib.names.__getitem__)
    masks, succ, preds, cls = _classes([(reach_a, ia), (reach_b, ib)])
    # The union holds a's reachable states, then b's by name.  Configuration
    # (p, q, back) is (p * n + q) * (k + 1) + back + 1, with back = -1 for
    # none; its parent is the one it was reached from.
    n, k1 = len(masks), len(letters) + 1
    p0 = reach_a.index(ia.ids[p_root])
    q0 = len(reach_a) + reach_b.index(ib.ids[q_root])
    parent = {(p0 * n + q) * k1: -1 for q in range(len(reach_a), n)}
    queue = deque(parent)
    while queue:
        code = queue.popleft()
        pq, back = divmod(code, k1)
        p, q = divmod(pq, n)
        base = masks[q] & ~(1 << back >> 1)  # back + 1 is 0 for none
        extra = masks[p] & ~base
        # Accept at q_root with equal sets, or climb on one extra letter.
        if base & ~masks[p] or extra & (extra - 1) or not (extra or q == q0):
            continue
        if any(cls[col[p]] != cls[col[q]] for i, col in enumerate(succ) if base >> i & 1):
            continue
        if not extra:
            word: list[str] = []
            while parent[code] != -1:
                word.append(letters[code % k1 - 1])
                code = parent[code]
            return True, NonRootedWitness(tuple(word))
        i = extra.bit_length() - 1
        j = inverse[i]
        for x, qhat in preds[q]:
            nxt = (succ[i][p] * n + qhat) * k1 + j + 1
            if x == j and nxt not in parent:
                parent[nxt] = code
                queue.append(nxt)
    return False, None


def verify_nonrooted_witness(
    a: PDfa, p_root: str, b: PDfa, q_root: str, w: Word
) -> bool:
    """Check a non-rooted witness: re-root the second tree at the node named
    by ``w`` and test rooted isomorphism against the first."""
    b2, v = reroot_along_word(b, q_root, tuple(w))
    ok, _ = iso_rooted(a, p_root, b2, v)
    return ok
