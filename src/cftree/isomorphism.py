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
out-letter bit masks and successor columns agree between the sides.  The
state equivalence is ``automata._classes``, on the sides that each pDFA
keeps for the states its root reaches, or for all of them: its index, the
predecessor form of those states and each one's two-round key.  So a
decision repeated on the same automata and roots copies and rebuilds
nothing, and the first one builds only what the roots reach.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce

from .alphabet import merge_alphabets
from .automata import PDfa, _classes, _predecessors, _reach, _require_pair
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


def language_classes(*automata: PDfa) -> list[dict[str, int]]:
    """Group the states of one or more pDFAs by the language they read.

    One integer partition refinement (``_classes``) on the automata's
    indexes over their merged alphabet side by side, on the sides that
    ``_predecessors`` gives for every state, passed on as they are.  Returns one map per automaton from state to class id: two
    states get the same id exactly when they generate the same language.
    Class ids are labels: only their equality is promised, and their
    numbers follow the refinement's blocks.  A state that only transitions
    name raises ``UnknownStateError``, as in ``quotient``.
    """
    if not automata:
        return []
    alphabet = reduce(merge_alphabets, (d.alphabet for d in automata))
    indexes = [d._indexed(alphabet) for d in automata]
    block, stride = _classes([_predecessors(d, ix) for d, ix in zip(automata, indexes)])
    return [dict(zip(ix.names, block[j * stride :])) for j, ix in enumerate(indexes)]


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
    a witness.  One ``_classes`` call refines the states the roots reach,
    on the two sides that the pDFAs keep for their roots, passed on as
    ``_predecessors`` returns them.  A configuration is one integer over
    the two indexes' own ids, and its base set is the mask of q less
    ``back``.  Starts (the second root's reach, in its side's order) and
    predecessors (the sources that root reaches, from its side) go in
    state-name order.
    """
    alphabet = _require_pair(a, p_root, b, q_root)
    ia, ib = a._indexed(alphabet), b._indexed(alphabet)
    letters, inverse, mask_a, mask_b, succ_a = ia.letters, ia.inverse, ia.masks, ib.masks, ia.succ
    _, starts, preds, _ = side_b = _predecessors(b, ib, q_root)
    # b goes first, so block[q] is the block of b's q with no offset to
    # add: the climb below reads it most.
    block, oa = _classes([side_b, _predecessors(a, ia, p_root)])
    nb = len(ib.names)
    columns = list(zip(succ_a, ib.succ))
    # Configuration (p, q, back) is (p * nb + q) * (k + 1) + back + 1 on the
    # two indexes' own ids, with back = -1 for none; its parent is the one
    # it was reached from.
    k1 = len(letters) + 1
    p0, q0 = ia.ids[p_root], ib.ids[q_root]
    parent = {(p0 * nb + q) * k1: -1 for q in starts}
    queue = deque(parent)
    while queue:
        code = queue.popleft()
        pq, back = divmod(code, k1)
        p, q = divmod(pq, nb)
        base = mask_b[q] & ~(1 << back >> 1)  # back + 1 is 0 for none
        extra = mask_a[p] & ~base
        # Accept at q_root with equal sets, or climb on one extra letter.
        if base & ~mask_a[p] or extra & (extra - 1) or not (extra or q == q0):
            continue
        if any(block[oa + x[p]] != block[y[q]] for i, (x, y) in enumerate(columns) if base >> i & 1):
            continue
        if not extra:
            word: list[str] = []
            while parent[code] != -1:
                word.append(letters[code % k1 - 1])
                code = parent[code]
            return True, NonRootedWitness(tuple(word))
        i = extra.bit_length() - 1
        j = inverse[i]
        up = succ_a[i][p] * nb
        pairs = iter(preds[q])
        for x in pairs:
            qhat = next(pairs)
            if x == j and (nxt := (up + qhat) * k1 + j + 1) not in parent:
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
