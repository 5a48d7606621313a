"""Rooted and non-rooted isomorphism of deterministic context-free trees.

Inputs are reduced pDFAs with designated states.  Rooted isomorphism is
language equality of the designated states, decided by breadth-first search
over the product of the two automata; a failure comes with a shortest word
readable from exactly one side.  Non-rooted isomorphism searches a finite
configuration graph whose configurations pair a state of the first automaton
with a candidate node label of the second and an optional excluded branch;
an accepting path names a node at which re-rooting the second tree makes the
two rooted trees isomorphic.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import reduce

from .alphabet import merge_alphabets
from .automata import PDfa, _Index, _relabel, require_reduced, trim
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


#: A configuration ``(p, q, back)`` of the non-rooted search.
_Config = tuple[str, str, str | None]


def language_classes(*automata: PDfa) -> list[dict[str, int]]:
    """Group the states of one or more pDFAs by the language they read.

    Coarsest-partition refinement (Hopcroft 1971; Valmari and Lehtinen 2008
    for partial transition functions) on the disjoint union of the automata.
    The initial blocks are the out-letter sets, so every state of a block
    reads the same letters and a block splits only on where they lead.
    Returns one map per automaton from state to class id: two states get the
    same id exactly when they generate the same language.
    """
    reduce(merge_alphabets, (d.alphabet for d in automata))
    index: list[dict[str, int]] = []
    block: list[int] = []
    by_outs: dict[frozenset[str], int] = {}
    for d in automata:
        states = sorted(d.states)
        index.append({p: len(block) + i for i, p in enumerate(states)})
        block += [by_outs.setdefault(d.out_set(p), len(by_outs)) for p in states]
    members: list[set[int]] = [set() for _ in by_outs]
    for s, b in enumerate(block):
        members[b].add(s)
    preds: list[list[tuple[str, int]]] = [[] for _ in block]
    for d, idx in zip(automata, index):
        for (p, x), q in d.delta.items():
            preds[idx[q]].append((x, idx[p]))
    pending = set(range(len(members)))
    while pending:
        splitter = members[pending.pop()]
        sources: dict[str, list[int]] = defaultdict(list)
        for t in splitter:
            for x, s in preds[t]:
                sources[x].append(s)
        for hit_states in sources.values():
            hit: dict[int, set[int]] = defaultdict(set)
            for s in hit_states:
                hit[block[s]].add(s)
            for b, part in hit.items():
                if len(part) == len(members[b]):
                    continue
                members[b] -= part
                new = len(members)
                members.append(part)
                for s in part:
                    block[s] = new
                # Hopcroft: a block not waiting to split others queues only
                # its smaller half.
                pending.add(b if b not in pending and len(members[b]) < len(part) else new)
    return [{p: block[i] for p, i in idx.items()} for idx in index]


def _over(ix: _Index, letters: list[str]) -> tuple[list[int], list[list[int] | None]]:
    """Out-letter masks and successor columns of an index over ``letters``,
    a sorted superset of its own letters; a letter it lacks has no column."""
    if ix.letters == letters:
        return ix.masks, ix.succ
    own = {x: i for i, x in enumerate(ix.letters)}
    to = [letters.index(x) for x in ix.letters]
    over = {m: _relabel(m, to) for m in set(ix.masks)}
    succ = [ix.succ[own[x]] if x in own else None for x in letters]
    return list(map(over.__getitem__, ix.masks)), succ


def iso_rooted(
    a: PDfa, p_root: str, b: PDfa, q_root: str
) -> tuple[bool, Witness | None]:
    """Decide rooted isomorphism of the trees generated from two states.

    Equivalent to language equality of the designated states.  On failure
    returns a shortest separating word, found by BFS over reachable state
    pairs: the first pair with different out-sets, extended by a letter
    readable on one side only.
    """
    require_reduced(a, "first automaton")
    require_reduced(b, "second automaton")
    if p_root not in a.states:
        raise UnknownStateError(f"state {p_root!r} is not in the first automaton")
    if q_root not in b.states:
        raise UnknownStateError(f"state {q_root!r} is not in the second automaton")
    letters = merge_alphabets(a.alphabet, b.alphabet).sorted_letters()
    ia, ib = a._indexed(), b._indexed()
    mask_a, succ_a = _over(ia, letters)
    mask_b, succ_b = _over(ib, letters)
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
    a witness.
    """
    require_reduced(a, "first automaton")
    require_reduced(b, "second automaton")
    if p_root not in a.states:
        raise UnknownStateError(f"state {p_root!r} is not in the first automaton")
    if q_root not in b.states:
        raise UnknownStateError(f"state {q_root!r} is not in the second automaton")
    alphabet = merge_alphabets(a.alphabet, b.alphabet)
    a = trim(a, p_root)
    b = trim(b, q_root)
    cls_a, cls_b = language_classes(a, b)

    in_b: dict[str, list[tuple[str, str]]] = {q: [] for q in b.states}
    for (qhat, x), q in sorted(b.delta.items()):
        in_b[q].append((qhat, x))

    def subtrees_match(p: str, q: str, base: frozenset[str]) -> bool:
        return all(cls_a[a.delta[(p, x)]] == cls_b[b.delta[(q, x)]] for x in base)

    initial: list[_Config] = [(p_root, q, None) for q in sorted(b.states)]
    parent: dict[_Config, tuple[_Config | None, str | None]] = {
        c: (None, None) for c in initial
    }
    queue = deque(initial)
    while queue:
        cfg = queue.popleft()
        p, q, back = cfg
        outs_p = a.out_set(p)
        base = b.out_set(q) - {back} if back is not None else b.out_set(q)
        base = frozenset(base)
        if q == q_root and outs_p == base and subtrees_match(p, q, base):
            word: list[str] = []
            cur: _Config | None = cfg
            while cur is not None:
                prev, letter = parent[cur]
                if letter is not None:
                    word.append(letter)
                cur = prev
            return True, NonRootedWitness(tuple(word))
        if base < outs_p and len(outs_p) == len(base) + 1 and subtrees_match(p, q, base):
            (extra,) = outs_p - base
            for qhat, bhat in in_b[q]:
                if alphabet.inv(bhat) != extra:
                    continue
                nxt = (a.delta[(p, extra)], qhat, bhat)
                if nxt not in parent:
                    parent[nxt] = (cfg, bhat)
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
