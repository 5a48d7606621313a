"""Rooted and non-rooted isomorphism of deterministic context-free trees.

Inputs are reduced pDFAs with designated states.  Rooted isomorphism is
language equality of the designated states, decided by breadth-first search
over the product of the two automata; a failure comes with a shortest word
readable from exactly one side.  The search keeps, per state of the first
automaton, the first state of the second met with it, in a list, and a set
of only the pairs met after that one; it keeps no parent links, and rebuilds
a failure's word by scanning the earlier levels of its queue backwards for
the pair that queued each one.  Non-rooted isomorphism searches a finite
configuration graph whose configurations pair a language class of the first
automaton's states with a class of candidate node labels of the second and
an optional excluded branch; an accepting path names a node at which
re-rooting the second tree makes the two rooted trees isomorphic.  Searching
on classes rather than states gives the same verdicts and witness lengths,
and it queues configurations per pair of classes, not per pair of states,
which matters on inputs with many equivalent states.  When the first root
reads two letters or more, the starts are looked up from the predecessors of
the second side's states in two of the first root's successor classes, not
found by a scan of the second root's reach.  Both searches and the state
equivalence run on integer indexes of the two pDFAs over their merged
alphabet, which is the first one itself when the two are equal, so letter
ids, out-letter bit masks and successor columns agree between the sides;
each search reads, per out-mask it meets, the columns of that mask's
letters, listed when first met.  The state equivalence is
``automata._classes``, on the sides that each pDFA keeps for the states its
root reaches, or for all of them: its index, the predecessor form of those
states and each one's three-round key.  The refinement starts from the
blocks of equal keys, numbered in one pass over those states.  So a decision
repeated on the same automata and roots copies and rebuilds nothing, and the
first one builds only what the roots reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, islice

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
    ``_predecessors`` gives for every state, passed on as they are.
    Returns one map per automaton from state to class id: two states get
    the same id exactly when they generate the same language.
    Class ids are labels: only their equality is promised, and their
    numbers follow the refinement's blocks.  A state that only transitions
    name raises ``UnknownStateError``, as in ``quotient``.
    """
    if not automata:
        return []
    alphabet = reduce(merge_alphabets, (d.alphabet for d in automata))
    indexes = [d._indexed(alphabet) for d in automata]
    block, stride, _ = _classes([_predecessors(d, ix) for d, ix in zip(automata, indexes)])
    return [dict(zip(ix.names, block[j * stride :])) for j, ix in enumerate(indexes)]


def iso_rooted(
    a: PDfa, p_root: str, b: PDfa, q_root: str
) -> tuple[bool, Witness | None]:
    """Decide rooted isomorphism of the trees generated from two states.

    Equivalent to language equality of the designated states.  On failure
    returns a shortest separating word, found by BFS over reachable state
    pairs, level by level: the first pair with different out-sets, extended
    by the lowest letter readable on one side only.  A pair is new unless
    its first state's first partner, kept in a list, is its second state,
    or it is in the set of the pairs met after another partner of their
    first state; no parent links are kept.  The word is rebuilt backwards
    from the failing pair: on each earlier level, the first pair in queue
    order, then ascending letter, that steps into the current one, which
    is the pair that queued it.  A state that only transitions name raises
    ``UnknownStateError`` when it is reachable from the root, as in ``trim``.
    """
    alphabet = _require_pair(a, p_root, b, q_root)
    ia, ib = a._indexed(alphabet), b._indexed(alphabet)
    for d, ix, root in ((a, ia, p_root), (b, ib, q_root)):
        if len(ix.names) > len(d.states):  # ids past those are states only transitions name
            _reach(d, root)
    letters, mask_a, mask_b = ia.letters, ia.masks, ib.masks
    nb = len(ib.names)
    columns = list(zip(ia.succ, ib.succ))
    p0, q0 = ia.ids[p_root], ib.ids[q_root]
    partner = [-1] * len(ia.names)  # partner[p]: the first q met with p
    partner[p0] = q0
    others: set[int] = set()  # p * nb + q of the pairs met after another partner of p
    # The queue is ps and qs side by side; starts[l] is where level l begins.
    ps, qs = [p0], [q0]
    starts = [0]
    pairs = zip(ps, qs)  # reads the queue as it grows
    reads: dict[int, tuple] = {}  # a mask -> the column pairs of its letters
    while (end := len(ps)) > starts[-1]:
        for p, q in islice(pairs, end - starts[-1]):
            ma, mb = mask_a[p], mask_b[q]
            if ma != mb:
                sym = ma ^ mb
                i = (sym & -sym).bit_length() - 1
                side = "left" if (ma >> i) & 1 else "right"
                path: list[str] = [letters[i]]
                for lo, hi in zip(starts[-2::-1], starts[:0:-1]):
                    for s, t in zip(ps[lo:hi], qs[lo:hi]):
                        for i, (x, y) in enumerate(columns):
                            if x[s] == p and y[t] == q:
                                break
                        else:
                            continue
                        break
                    path.append(letters[i])
                    p, q = s, t
                path.reverse()
                return False, Witness(tuple(path), side)
            edges = reads.get(ma)
            if edges is None:
                edges = reads[ma] = tuple(c for i, c in enumerate(columns) if ma >> i & 1)
            for x, y in edges:
                s, t = x[p], y[q]
                r = partner[s]
                if r != t:
                    if r < 0:
                        partner[s] = t
                    elif (code := s * nb + t) in others:
                        continue
                    else:
                        others.add(code)
                    ps.append(s)
                    qs.append(t)
        starts.append(end)
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
    ``_predecessors`` returns them.  Whether a configuration passes, and
    where it climbs, depends on p and q only through their classes, so the
    search runs on the joint classes: a configuration is keyed by the
    blocks of p and q and ``back``, and carries one member state of each.
    Starts are queued one per class of the second root's reach, at its
    first state in name order among the states looked at, in that order,
    and only if the class's out-mask can pass: the first root's mask less
    one letter, or all of it in the second root's class.  A passing start
    also reads each of its letters into the block the first root reads it
    into.  So when the first root reads two letters or more, the states
    looked at are the sources on the first two of them of the second side's
    members of those two blocks, from their predecessor tuples: a passing
    class has all its members among them, so the passing starts are queued
    as a scan of the reach would queue them.  Otherwise, as a start that
    reads nothing may pass, the whole reach is looked at.  A class climbs
    along the ``(letter, source)`` pairs of its members, one per letter and
    source class, ascending by letter, then by source name; a class with
    one member of the second side reads that member's tuple as it is, and
    one whose only member, of either side, is q reads it with no lookup,
    as most classes of a minimal second automaton do.  So the search
    queues at most one configuration per pair of classes and excluded
    branch, and each climbs along its class's distinct predecessors.
    """
    alphabet = _require_pair(a, p_root, b, q_root)
    ia, ib = a._indexed(alphabet), b._indexed(alphabet)
    letters, inverse, mask_a, mask_b, succ_a = ia.letters, ia.inverse, ia.masks, ib.masks, ia.succ
    _, order, preds, _ = side_b = _predecessors(b, ib, q_root)
    # b goes first, so block[q] is the block of b's q with no offset to
    # add: the climb below reads it most.
    block, oa, members = _classes([side_b, _predecessors(a, ia, p_root)])
    k = len(letters)
    columns = list(zip(succ_a, ib.succ))
    p0, q0 = ia.ids[p_root], ib.ids[q_root]
    m0, b0 = mask_a[p0], block[q0]
    # A start (p0, q, none) passes only if q reads p0's letters less at
    # most one, and all of them only in q0's class, each into p0's block
    # for it.  So when p0 reads two letters or more, q is a source on the
    # first or the second of them of a b-member of p0's block for it.
    own = [i for i in range(k) if m0 >> i & 1]
    near = {m0 ^ 1 << i for i in own} | {m0}
    starts = order  # with one letter or none, a q that reads none can pass
    if len(own) > 1:
        found = set()
        for i in own[:2]:
            for t in members[block[oa + succ_a[i][p0]]]:
                if t < oa:
                    pairs = iter(preds[t])
                    for x in pairs:
                        s = next(pairs)
                        if x == i:
                            found.add(s)
        starts = sorted(found, key=ib.names.__getitem__)
    firsts: dict[int, int] = {}
    for q in compress(starts, map(near.__contains__, map(mask_b.__getitem__, starts))):
        c = block[q]
        if c not in firsts and (mask_b[q] != m0 or c == b0):
            firsts[c] = q
    # Configuration (p, q, back) is (block of p * n + block of q) * (k + 1)
    # + back + 1, with back = -1 for none; its parent is the one it was
    # reached from.  The queue grows as it is read.
    n, k1 = len(members), k + 1
    head = block[oa + p0] * n
    parent = {(head + c) * k1: -1 for c in firsts}
    queue = [(code, p0, q) for code, q in zip(parent, firsts.values())]
    reads: dict[int, tuple] = {}  # a mask -> the column pairs of its letters
    climbs: dict[int, tuple[int, ...]] = {}  # a block climbed from -> its predecessor pairs
    for code, p, q in queue:
        base = mask_b[q] & ~(1 << code % k1 >> 1)  # back + 1 is 0 for none
        extra = mask_a[p] & ~base
        # Accept at q0's class with equal sets, or climb on one extra letter.
        if base & ~mask_a[p] or extra & (extra - 1) or not (extra or block[q] == b0):
            continue
        cols = reads.get(base)
        if cols is None:
            cols = reads[base] = tuple(c for i, c in enumerate(columns) if base >> i & 1)
        for x, y in cols:
            if block[oa + x[p]] != block[y[q]]:
                break
        else:
            if not extra:
                word: list[str] = []
                while parent[code] != -1:
                    word.append(letters[code % k1 - 1])
                    code = parent[code]
                return True, NonRootedWitness(tuple(word))
            i = extra.bit_length() - 1
            j = inverse[i]
            up = succ_a[i][p]
            head = block[oa + up] * n
            c = block[q]
            into = preds[q] if len(members[c]) == 1 else climbs.get(c)
            if into is None:
                into = climbs[c] = _class_predecessors(q, members[c], oa, preds, block, ib.names)
            pairs = iter(into)
            for x in pairs:
                qhat = next(pairs)
                if x == j and (nxt := (head + block[qhat]) * k1 + j + 1) not in parent:
                    parent[nxt] = code
                    queue.append((nxt, up, qhat))
    return False, None


def _class_predecessors(
    q: int, members: set[int], stride: int, preds: list[tuple[int, ...]], block: list[int], names: list[str]
) -> tuple[int, ...]:
    """The flat ``(letter, source, …)`` tuple of the class of ``q``, whose
    shifted ids are ``members``, on the side below ``stride``: ``preds[q]``
    if ``q`` is its only member there, and otherwise its members' pairs, one
    per letter and source block, the one of the smallest source name,
    ascending by letter, then by source name."""
    own = [t for t in members if t < stride]
    if len(own) == 1:
        return preds[q]
    first: dict[tuple[int, int], int] = {}
    for t in own:
        pairs = iter(preds[t])
        for x in pairs:
            s = next(pairs)
            key = (x, block[s])
            if key not in first or names[s] < names[first[key]]:
                first[key] = s
    ranked = sorted(((x, names[s], s) for (x, _), s in first.items()))
    return tuple(v for x, _, s in ranked for v in (x, s))


def verify_nonrooted_witness(
    a: PDfa, p_root: str, b: PDfa, q_root: str, w: Word
) -> bool:
    """Check a non-rooted witness: re-root the second tree at the node named
    by ``w`` and test rooted isomorphism against the first."""
    b2, v = reroot_along_word(b, q_root, tuple(w))
    ok, _ = iso_rooted(a, p_root, b2, v)
    return ok
