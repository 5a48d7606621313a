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
state equivalence (``_classes``) refines the indexes side by side, on the
predecessor form and reach lists each pDFA keeps, so a decision repeated on
the same automata copies and rebuilds nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce

from .alphabet import merge_alphabets
from .automata import PDfa, _predecessors, _reach, _require_pair
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


def _classes(sides: list[tuple]) -> tuple[list[int], int, list[tuple[list[int], list[tuple[int, ...]]]]]:
    """Partition refinement on indexes side by side, in place.

    Each side is ``(pdfa, index, keep)``: an index of ``pdfa``, all over one
    alphabet, and the ids it keeps, a set closed under successors.  Side
    ``j``'s id ``s`` is shifted to ``j * stride + s``, where ``stride`` is
    the power of two above the largest index size, so a shifted id splits
    into side and id with two bit operations.  Masks and predecessors are
    read from each side's own index and ``_predecessors`` form, so nothing
    is copied, and apart from one list of blocks, filled with ``-1`` in C,
    the work follows the kept ids.  Returns the blocks, for each shifted id, of
    the coarsest partition of the kept states that separates out-masks and
    is stable under every letter (Hopcroft 1971; Valmari and Lehtinen 2008
    for partial functions), with ``-1`` for an id not kept; ``stride``; and
    each side's predecessor form.  The blocks of equal masks are already
    stable under the whole kept set, so every block but the largest starts
    out pending (Hopcroft's lemma).
    """
    forms = [_predecessors(d, ix) for d, ix, _ in sides]
    preds = [form[1] for form in forms]
    bits = max(len(ix.masks) for _, ix, _ in sides).bit_length()
    stride, low = 1 << bits, (1 << bits) - 1
    offsets = range(0, stride * len(sides), stride)
    block = [-1] * (stride * len(sides))
    by_mask: dict[int, int] = {}
    for o, (_, ix, keep) in zip(offsets, sides):
        masks = ix.masks
        for s in keep:
            block[o + s] = by_mask.setdefault(masks[s], len(by_mask))
    members: list[set[int]] = [set() for _ in by_mask]
    for o, (_, _, keep) in zip(offsets, sides):
        for s in keep:
            members[block[o + s]].add(o + s)
    pending = set(range(len(members)))
    pending.discard(max(pending, key=lambda b: len(members[b]), default=-1))
    while pending:
        # Plain dicts and ``next`` on one iterator cost less here than
        # ``defaultdict`` and ``zip``.
        sources: dict[int, list[int]] = {}
        for t in members[pending.pop()]:
            q = t & low
            o = t - q
            pairs = iter(preds[t >> bits][q])
            for i in pairs:
                s = next(pairs) + o
                if i in sources:
                    sources[i].append(s)
                else:
                    sources[i] = [s]
        for hit_states in sources.values():
            hit: dict[int, list[int]] = {}
            for s in hit_states:
                b = block[s]
                if b in hit:
                    hit[b].append(s)
                else:
                    hit[b] = [s]
            hit.pop(-1, None)  # sources that are not kept
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
    return block, stride, forms


def language_classes(*automata: PDfa) -> list[dict[str, int]]:
    """Group the states of one or more pDFAs by the language they read.

    One integer partition refinement (``_classes``) on the automata's
    indexes over their merged alphabet side by side, starting from the
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
    block, stride, _ = _classes([(d, ix, range(len(ix.names))) for d, ix in zip(automata, indexes)])
    return [dict(zip(ix.names[: len(d.states)], block[j * stride :])) for j, (d, ix) in enumerate(zip(automata, indexes))]


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
    read from the pDFAs' cached indexes, predecessor forms and reach lists.
    A configuration is one integer over the two indexes' own ids, its base
    set is the mask of q less ``back``, and starts (the second root's
    reachable states) and predecessors (from the second pDFA's predecessor
    form) go in state-name order.
    """
    alphabet = _require_pair(a, p_root, b, q_root)
    ia, ib = a._indexed(alphabet), b._indexed(alphabet)
    letters, inverse, mask_a, mask_b, succ_a = ia.letters, ia.inverse, ia.masks, ib.masks, ia.succ
    reach_b = _reach(b, q_root)
    # b goes first, so block[q] is the block of b's q with no offset to
    # add: the climb below reads it most.  It is -1 for q unreachable.
    block, oa, forms = _classes([(b, ib, reach_b), (a, ia, _reach(a, p_root))])
    preds = forms[0][1]  # b's predecessor tuples
    nb = len(ib.names)
    columns = list(zip(succ_a, ib.succ))
    # Configuration (p, q, back) is (p * nb + q) * (k + 1) + back + 1 on the
    # two indexes' own ids, with back = -1 for none; its parent is the one
    # it was reached from.
    k1 = len(letters) + 1
    p0, q0 = ia.ids[p_root], ib.ids[q_root]
    parent = {(p0 * nb + q) * k1: -1 for q in sorted(reach_b, key=ib.names.__getitem__)}
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
            # A source that q_root does not reach cannot climb back to it.
            if x == j and block[qhat] >= 0 and (nxt := (up + qhat) * k1 + j + 1) not in parent:
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
