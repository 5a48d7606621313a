"""Brute-force oracles, independent of the search machinery they check.

The rooted oracle re-derives language equality straight from the recursive
definition of the language of a state (or from literal word-set enumeration
when that is small enough).  The non-rooted oracle enumerates nodes of the
second tree and re-roots at each, pruning only nodes whose re-rooted tree
repeats an already-seen rooted isomorphism type: the types below a node are
determined by its own type, so pruning drops no candidate type and preserves
minimal witness depth.  State equivalence comes from the quadratic
pair-marking fixpoint, independent of the library's partition refinement,
and re-rooting iterates the paper's single mNFA step, independent of the
library's one-pass re-rooting.  The reducedness scan, the rooted product
search, the 2GAP reduction, the state partition refinement and the
non-rooted configuration search work on state names, independent of the
library's cached integer index.  The labeled disc oracle enumerates every
rooted isomorphism outright; the recursive matcher it replaced is kept for
pDFA discs, where it is complete.  The document readers that check each
row with ``_require_fields``, and the standard library's indenting encoder,
check the one-pass readers and the column writer of ``cftree.jsonio``.  The
quotient that renames classes through string dicts checks the one built
straight from the refinement's blocks, and a breadth-first walk over the
dict views checks the node numbering of every disc.  Discs unfolded as word
tuples and handed to the ``DiscTree`` constructor, with the document writer,
DOT writer, compression and determinism scan read off their dict views,
check the discs that unfold, write and compress on node numbers; a filter over
the ``delta`` map checks the ``trim`` that restricts the index, and
re-rooting by copying the ``delta`` map checks the re-rooting that appends
the path copies to the index.  The pdfa document and the DOT text written
from ``sorted(dict(d.delta).items())`` check the ordered listing of a
pDFA's transitions, which reads an index without decoding it.  The
configuration search on a fresh union of the two reachable parts, refined
from every mask block, checks the search that refines both cached indexes
side by side.
"""

import json
from collections import defaultdict, deque
from functools import reduce
from typing import Any

from cftree import (
    DEFAULT_MAX_NODES,
    Gap2Instance,
    MaterializationLimitError,
    NondeterministicTreeError,
    MNfa,
    NonRootedWitness,
    PDfa,
    SchemaError,
    Transition,
    UnknownStateError,
    Witness,
    WordNotInLanguageError,
    as_pdfa,
    involutive_closure,
    language_classes,
    merge_alphabets,
    pdfa_to_mnfa,
    require_reduced,
    reroot_step,
    trim,
)
from cftree.automata import _reach, _require_pair
from cftree.jsonio import _require_fields, alphabet_from_doc
from cftree.jsonio import alphabet_to_doc
from cftree.unfolding import DiscTree, Node, Word, _dot_quote, _word_text

ENUMERATION_CUTOFF = 8


def language_upto(d: PDfa, p: str, maxlen: int, max_words: int = DEFAULT_MAX_NODES) -> set[Word]:
    """All words of length at most ``maxlen`` readable from ``p``."""
    if p not in d.states:
        raise UnknownStateError(f"state {p!r} is not in the automaton")
    words: set[Word] = {()}
    frontier: list[tuple[Word, str]] = [((), p)]
    for _ in range(maxlen):
        nxt: list[tuple[Word, str]] = []
        for w, state in frontier:
            for a in d.out_set(state):
                wa = w + (a,)
                words.add(wa)
                nxt.append((wa, d.delta[(state, a)]))
            if len(words) > max_words:
                raise MaterializationLimitError(f"language would exceed {max_words} words")
        frontier = nxt
    return words


def _fresh(name: str, taken) -> str:
    while name in taken:
        name += "+"
    return name


def reroot_by_steps(d: PDfa, root: str, w):
    """Re-root the tree generated from ``root`` at the node named by ``w``,
    one letter at a time: view the pDFA as an mNFA, apply ``reroot_step``
    across the letter, trim and condense back to a pDFA.

    ``reroot_step`` names its two copies as for step 0; step k renames them
    ``{old root}@p{k}`` and ``{target}@q{k}``, made fresh against the states
    of that step's mNFA.  ``w`` must be readable from ``root``.
    """
    cur = trim(d, root)
    cur_root = root
    for k, a in enumerate(w):
        m = pdfa_to_mnfa(cur)
        crossed = next(t for t in m.transitions_from(cur_root) if t.label == a)
        new, new_root = reroot_step(m, cur_root, crossed.tid)
        (p_new,) = new.states - m.states - {new_root}
        p_name = _fresh(f"{cur_root}@p{k}", m.states)
        q_name = _fresh(f"{crossed.dst}@q{k}", m.states | {p_name})
        out = as_pdfa(trim(new, new_root))
        names = {s: s for s in out.states}
        names.update({p_new: p_name, new_root: q_name})
        cur = PDfa(
            set(names.values()),
            out.alphabet,
            {(names[p], x): names[q] for (p, x), q in out.delta.items()},
        )
        cur_root = q_name
    return cur, cur_root


def lang_equal_upto_recursive(a: PDfa, p: str, b: PDfa, q: str, k: int) -> bool:
    """Language equality up to length k, unrolled from the identity
    L(p) = {eps} + sum over readable letters x of x L(p.x)."""
    memo: dict[tuple[str, str, int], bool] = {}

    def eq(p2: str, q2: str, k2: int) -> bool:
        key = (p2, q2, k2)
        if key in memo:
            return memo[key]
        if a.out_set(p2) != b.out_set(q2):
            memo[key] = False
        elif k2 <= 1:
            memo[key] = True
        else:
            memo[key] = all(
                eq(a.delta[(p2, x)], b.delta[(q2, x)], k2 - 1)
                for x in a.out_set(p2)
            )
        return memo[key]

    if k == 0:
        return True
    return eq(p, q, k)


def langs_equal_upto(a: PDfa, p: str, b: PDfa, q: str, k: int) -> bool:
    """Set-equality of the truncated languages.

    Literal enumeration for small k; for large k the recursive form computes
    the same predicate without materializing the (exponential) word sets.
    """
    if k <= ENUMERATION_CUTOFF:
        return language_upto(a, p, k) == language_upto(b, q, k)
    return lang_equal_upto_recursive(a, p, b, q, k)


def equivalent_pairs(a: PDfa, b: PDfa) -> set[tuple[str, str]]:
    """All pairs (p, q) of states of two pDFAs that generate the same language.

    Pairs with different out-sets are distinguishable; distinguishability
    propagates backwards across simultaneous letter steps until a fixpoint.
    The result is the complement.  ``a`` and ``b`` may be the same automaton.
    """
    merge_alphabets(a.alphabet, b.alphabet)
    marked: set[tuple[str, str]] = set()
    work: deque[tuple[str, str]] = deque()
    for p in a.states:
        for q in b.states:
            if a.out_set(p) != b.out_set(q):
                marked.add((p, q))
                work.append((p, q))
    rev_a: dict[tuple[str, str], list[str]] = {}
    for (p, x), p2 in a.delta.items():
        rev_a.setdefault((p2, x), []).append(p)
    rev_b: dict[tuple[str, str], list[str]] = {}
    for (q, x), q2 in b.delta.items():
        rev_b.setdefault((q2, x), []).append(q)
    letters = {x for (_, x) in a.delta} | {x for (_, x) in b.delta}
    while work:
        p2, q2 = work.popleft()
        for x in letters:
            for p in rev_a.get((p2, x), ()):
                for q in rev_b.get((q2, x), ()):
                    if (p, q) not in marked:
                        marked.add((p, q))
                        work.append((p, q))
    return {(p, q) for p in a.states for q in b.states if (p, q) not in marked}


def quotient_by_pairs(d: PDfa) -> tuple[PDfa, dict[str, str]]:
    """Quotient of ``d`` by ``equivalent_pairs``, each class named by its
    smallest member, with the map from each state to its class."""
    rep = {p: p for p in d.states}
    for p, q in equivalent_pairs(d, d):
        if q < rep[p]:
            rep[p] = q
    delta = {(rep[p], x): rep[q] for (p, x), q in d.delta.items()}
    return PDfa(set(rep.values()), d.alphabet, delta), rep


def quotient_by_names(d: PDfa) -> tuple[PDfa, dict[str, str]]:
    """The quotient that renames ``language_classes``' classes through string
    dicts, each class named by its smallest member."""
    (cls,) = language_classes(d)
    name: dict[int, str] = {}
    for p in sorted(d.states):
        name.setdefault(cls[p], p)
    rep = {p: name[c] for p, c in cls.items()}
    delta = {(rep[p], a): rep[q] for (p, a), q in d.delta.items()}
    return PDfa(name.values(), d.alphabet, delta), rep


def canonical_rooted_key(d: PDfa, root: str) -> str:
    """Canonical description of the rooted tree generated from ``root``.

    Trim, quotient by state equivalence and rename the states in BFS
    discovery order from the root's class: the minimal reachable pDFA of a
    generated tree is unique up to renaming, so two states get equal keys
    exactly when their trees are isomorphic as rooted graphs.
    """
    m, rep = quotient_by_pairs(trim(d, root))
    root2 = rep[root]
    index = {root2: 0}
    queue = deque([root2])
    edges = []
    while queue:
        p = queue.popleft()
        for x in sorted(m.out_set(p)):
            q = m.delta[(p, x)]
            if q not in index:
                index[q] = len(index)
                queue.append(q)
            edges.append((index[p], x, index[q]))
    return repr(edges)


def nodes_upto(d: PDfa, root: str, depth: int):
    """All words naming nodes of the generated tree up to the given level."""
    out = [()]
    frontier = [((), root)]
    for _ in range(depth):
        nxt = []
        for w, p in frontier:
            for x in sorted(d.out_set(p)):
                wx = w + (x,)
                out.append(wx)
                nxt.append((wx, d.delta[(p, x)]))
        frontier = nxt
    return out


def nonrooted_witness_brute(
    a: PDfa, p_root: str, b: PDfa, q_root: str, bound: int
):
    """Shortest word w with |w| <= bound such that re-rooting the second tree
    at the node named by w matches the first tree, or None.

    Nodes are visited in BFS order.  Two prunings keep the search finite
    without losing any candidate or disturbing minimal depth:

    * a node whose re-rooted tree type was already seen repeats, below
      itself, exactly the subtree of types of the first occurrence;
    * a node whose upward branch is not isomorphic to any subtree of the
      target can have no matching descendant, because the upward branch of a
      descendant contains it, and every subtree of a subtree of the target
      is again one.
    """
    a2 = trim(a, p_root)
    target = canonical_rooted_key(a2, p_root)
    target_aut, _ = quotient_by_pairs(a2)
    b2 = trim(b, q_root)
    seen_types = set()
    queue = deque([((), q_root)])
    while queue:
        w, state = queue.popleft()
        if len(w) > bound:
            break
        rerooted, new_root = reroot_by_steps(b2, q_root, w)
        key = canonical_rooted_key(rerooted, new_root)
        if key in seen_types:
            continue
        seen_types.add(key)
        if key == target:
            return w
        if w:
            up = rerooted.alphabet.inv(w[-1])
            up_state = rerooted.delta[(new_root, up)]
            k = len(target_aut.states) * len(rerooted.states)
            embeds = any(
                lang_equal_upto_recursive(target_aut, s, rerooted, up_state, k)
                for s in target_aut.states
            )
            if not embeds:
                continue
        for x in sorted(b2.out_set(state)):
            queue.append((w + (x,), b2.delta[(state, x)]))
    return None


def reducedness_violation_by_scan(d: PDfa):
    """The first pair ``p -a-> q -a^-1-> r`` in sorted transition order, or None."""
    for (p, a), q in sorted(d.delta.items()):
        ainv = d.alphabet.inv(a)
        r = d.delta.get((q, ainv))
        if r is not None:
            return ((p, a, q), (q, ainv, r))
    return None


def iso_rooted_reindexed(a: PDfa, p_root: str, b: PDfa, q_root: str):
    """Rooted isomorphism of two reduced pDFAs by BFS over state pairs, with
    both automata indexed afresh over the merged alphabet on every call."""
    letters = merge_alphabets(a.alphabet, b.alphabet).sorted_letters()
    lidx = {x: i for i, x in enumerate(letters)}

    def index(d: PDfa) -> tuple[list[str], list[dict[int, int]], list[int]]:
        names = sorted(d.states)
        sidx = {s: i for i, s in enumerate(names)}
        succ: list[dict[int, int]] = [{} for _ in names]
        mask = [0] * len(names)
        for (p, x), q in d.delta.items():
            i = lidx[x]
            succ[sidx[p]][i] = sidx[q]
            mask[sidx[p]] |= 1 << i
        return names, succ, mask

    _, succ_a, mask_a = index(a)
    names_b, succ_b, mask_b = index(b)
    nb = len(names_b)
    start = sorted(a.states).index(p_root) * nb + names_b.index(q_root)
    parent: dict[int, tuple[int, int]] = {start: (-1, -1)}
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
            cur = code
            while parent[cur][0] != -1:
                cur, j = parent[cur]
                path.append(letters[j])
            path.reverse()
            return False, Witness(tuple(path), side)
        bits = ma
        while bits:
            i = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            nxt = succ_a[pa][i] * nb + succ_b[qb][i]
            if nxt not in parent:
                parent[nxt] = (code, i)
                queue.append(nxt)
    return True, None


def reduce_gap2_by_names(g: Gap2Instance):
    """The 2GAP reduction built from per-transition name formatting, with
    the second automaton derived from the first transition by transition."""
    ell = (g.n - 1).bit_length()
    size = 1 << ell
    pad = size - g.n

    def renum(i: int) -> int:
        return i if i == 0 else i + pad

    target = size - 1
    succ: dict[int, list[int]] = {}
    for u, v in sorted((renum(u), renum(v)) for u, v in g.edges if v != 0 and u != g.n - 1):
        succ.setdefault(u, []).append(v)

    def bname(i: int) -> str:
        return format(i, f"0{ell}b")

    delta: dict[tuple[str, str], str] = {}
    for i in range(size):
        outs = sorted(succ.get(i, ()))
        if not outs:
            if i != target:
                delta[(bname(i), "0")] = bname(i)
                delta[(bname(i), "1")] = bname(i)
        else:
            delta[(bname(i), "0")] = bname(outs[0])
            delta[(bname(i), "1")] = bname(outs[-1])
    states = {bname(i) for i in range(size)}
    for k in range(ell):
        for w in range(1 << k):
            prefix = format(w, f"0{k}b") if k else ""
            states.add(prefix)
            delta[(prefix, "0")] = prefix + "0"
            delta[(prefix, "1")] = prefix + "1"
    alphabet = involutive_closure(["0", "1"])
    zeros = bname(0)
    delta_b = {(p, x): "f" if q == zeros else q for (p, x), q in delta.items() if p != zeros}
    delta_b[("f", "0")] = "f"
    delta_b[("f", "1")] = "f"
    a = PDfa(states, alphabet, delta)
    b = PDfa((states - {zeros}) | {"f"}, alphabet, delta_b)
    return a, "", b, ""


def language_classes_by_names(*automata: PDfa) -> list[dict[str, int]]:
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


def iso_nonrooted_by_names(
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
    cls_a, cls_b = language_classes_by_names(a, b)

    in_b: dict[str, list[tuple[str, str]]] = {q: [] for q in b.states}
    for (qhat, x), q in sorted(b.delta.items()):
        in_b[q].append((qhat, x))

    def subtrees_match(p: str, q: str, base: frozenset[str]) -> bool:
        return all(cls_a[a.delta[(p, x)]] == cls_b[b.delta[(q, x)]] for x in base)

    initial: list[tuple[str, str, str | None]] = [(p_root, q, None) for q in sorted(b.states)]
    parent: dict[tuple, tuple[tuple | None, str | None]] = {
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
            cur: tuple | None = cfg
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


def _union_classes(sides: list[tuple]) -> tuple[list[int], list[list[int]], list[list[tuple[int, int]]], list[int]]:
    """Partition refinement on a disjoint union of index parts.

    Each side is ``(order, index)``, the indexes over one alphabet; ``order``
    lists the ids kept, successors included, and the union numbers them side
    after side.  Returns the union's masks and columns, each state's ascending
    ``(letter, source)`` predecessors, and its block in the coarsest partition
    that separates out-masks and is stable under every letter.  Every block
    starts out pending.
    """
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
                pending.add(b if b not in pending and len(members[b]) < len(part) else new)
    return masks, succ, preds, block


def iso_nonrooted_by_union(
    a: PDfa, p_root: str, b: PDfa, q_root: str
) -> tuple[bool, NonRootedWitness | None]:
    """The configuration search of ``iso_nonrooted`` on a fresh union of the
    two reachable parts: each call copies the parts reachable from the roots
    into one numbering (``a``'s, then ``b``'s by name), rebuilds every
    predecessor list and refines the union from every mask block, where the
    library refines both cached indexes side by side.
    """
    alphabet = _require_pair(a, p_root, b, q_root)
    ia, ib = a._indexed(alphabet), b._indexed(alphabet)
    letters, inverse = ia.letters, ia.inverse
    reach_a = sorted(_reach(a, p_root))
    reach_b = sorted(_reach(b, q_root), key=ib.names.__getitem__)
    masks, succ, preds, cls = _union_classes([(reach_a, ia), (reach_b, ib)])
    # Configuration (p, q, back) is (p * n + q) * (k + 1) + back + 1, with
    # back = -1 for none; its parent is the one it was reached from.
    n, k1 = len(masks), len(letters) + 1
    p0 = reach_a.index(ia.ids[p_root])
    q0 = len(reach_a) + reach_b.index(ib.ids[q_root])
    parent = {(p0 * n + q) * k1: -1 for q in range(len(reach_a), n)}
    queue = deque(parent)
    while queue:
        code = queue.popleft()
        pq, back = divmod(code, k1)
        p, q = divmod(pq, n)
        base = masks[q] & ~(1 << back >> 1)
        extra = masks[p] & ~base
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


def labeled_iso_recursive(x: DiscTree, y: DiscTree) -> bool:
    """Labeled rooted disc isomorphism by recursive backtracking.

    Complete only when no two children of a node share a (letter, shape)
    key, as on every pDFA disc: once a subtree matches, its label choices
    are final, so a later sibling that conflicts with them cannot undo them
    and the search may answer False on isomorphic discs.  It also recurses
    once per level, so deep discs exhaust Python's recursion limit.
    """
    fx, fy = canonical_forms_by_handle([x, y])
    if fx[x.root] != fy[y.root]:
        return False
    # Search for a bijection beta on node labels together with a rooted
    # isomorphism.  Children with equal (letter, shape) keys are the only
    # source of branching; beta constraints are threaded through a trail so
    # failed branches can be undone.
    beta: dict[str, str] = {}
    used: set[str] = set()

    def match(v: Node, w: Node, trail: list[str]) -> bool:
        lv, lw = x.labels[v], y.labels[w]
        if lv in beta:
            if beta[lv] != lw:
                return False
        else:
            if lw in used:
                return False
            beta[lv] = lw
            used.add(lw)
            trail.append(lv)
        groups_x: dict[tuple[str, int], list[Node]] = {}
        for a, c in x.children.get(v, ()):
            groups_x.setdefault((a, fx[c]), []).append(c)
        groups_y: dict[tuple[str, int], list[Node]] = {}
        for a, c in y.children.get(w, ()):
            groups_y.setdefault((a, fy[c]), []).append(c)
        if set(groups_x) != set(groups_y):
            return False
        work = []
        for key in sorted(groups_x):
            if len(groups_x[key]) != len(groups_y[key]):
                return False
            work.append((groups_x[key], groups_y[key]))
        return match_groups(work, 0, trail)

    def match_groups(work: list[tuple[list[Node], list[Node]]], idx: int, trail: list[str]) -> bool:
        if idx == len(work):
            return True
        xs, ys = work[idx]
        remaining = list(ys)

        def assign(i: int) -> bool:
            if i == len(xs):
                return match_groups(work, idx + 1, trail)
            for j, cand in enumerate(remaining):
                if cand is None:
                    continue
                mark = len(trail)
                remaining[j] = None
                if match(xs[i], cand, trail) and assign(i + 1):
                    return True
                remaining[j] = cand
                while len(trail) > mark:
                    lv = trail.pop()
                    used.discard(beta.pop(lv))
            return False

        return assign(0)

    trail: list[str] = []
    return match(x.root, y.root, trail)


def _rooted_isos(x: DiscTree, y: DiscTree, v: Node, w: Node):
    """Every isomorphism of the subtree of ``x`` at ``v`` onto that of ``y``
    at ``w``, as a list of node pairs, found by trying each same-letter child
    of ``w`` for each child of ``v`` in turn."""
    cx, cy = x.children.get(v, ()), y.children.get(w, ())
    if sorted(a for a, _ in cx) != sorted(a for a, _ in cy):
        return

    def extend(i: int, free: frozenset[int], pairs: list):
        if i == len(cx):
            yield pairs
            return
        a, c = cx[i]
        for j in sorted(free):
            b, d = cy[j]
            if b == a:
                for sub in _rooted_isos(x, y, c, d):
                    yield from extend(i + 1, free - {j}, pairs + sub)

    yield from extend(0, frozenset(range(len(cy))), [(v, w)])


def labeled_iso_brute(x: DiscTree, y: DiscTree) -> bool:
    """Whether some rooted isomorphism of ``x`` onto ``y`` induces a
    bijection of node labels.

    Enumerates every rooted isomorphism by permuting same-letter children,
    with no shape canonization, and accepts when the induced label map is
    well defined and injective.  Exponential in the branching: keep discs
    small and nodes' child counts low.
    """
    for pairs in _rooted_isos(x, y, x.root, y.root):
        fwd: dict[str, str] = {}
        bwd: dict[str, str] = {}
        if all(
            fwd.setdefault(x.labels[v], y.labels[w]) == y.labels[w]
            and bwd.setdefault(y.labels[w], x.labels[v]) == x.labels[v]
            for v, w in pairs
        ):
            return True
    return False


def _is_int(value: Any) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, int) and not isinstance(value, bool)


def _string_list(value: Any, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{what} must be a list of strings")
    return value


def automaton_from_doc_by_fields(doc: Any, *, strict: bool = True) -> tuple[MNfa | PDfa, str | None]:
    """The automaton reader that checks every row with ``_require_fields``
    and builds a ``Transition`` per row for both kinds."""
    _require_fields(doc, {"alphabet", "kind", "states", "transitions"}, {"root"}, "automaton")
    alphabet = alphabet_from_doc(doc["alphabet"])
    kind = doc["kind"]
    if kind not in ("mnfa", "pdfa"):
        raise SchemaError(f'kind must be "mnfa" or "pdfa", not {kind!r}')
    states = _string_list(doc["states"], "states")
    if len(set(states)) != len(states):
        raise SchemaError("duplicate state names")
    if not isinstance(doc["transitions"], list):
        raise SchemaError("transitions must be a list")
    transitions: list[Transition] = []
    for td in doc["transitions"]:
        _require_fields(td, {"id", "from", "label", "to"}, set(), "transition")
        if not _is_int(td["id"]):
            raise SchemaError("transition id must be an integer")
        if not all(isinstance(td[k], str) for k in ("from", "label", "to")):
            raise SchemaError("transition endpoints and label must be strings")
        transitions.append(Transition(td["id"], td["from"], td["label"], td["to"]))
    root = doc.get("root")
    if root is not None and not isinstance(root, str):
        raise SchemaError("root must be a state name")

    state_set = set(states)
    if strict:
        ids = [t.tid for t in transitions]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate transition ids")
        for t in transitions:
            if t.src not in state_set or t.dst not in state_set:
                raise SchemaError(f"transition {t.tid} references unknown state")
            if t.label not in alphabet:
                raise SchemaError(f"transition {t.tid} uses unknown letter {t.label!r}")
        if root is not None and root not in state_set:
            raise SchemaError(f"root {root!r} is not a state")

    if kind == "pdfa":
        delta: dict[tuple[str, str], str] = {}
        for t in transitions:
            key = (t.src, t.label)
            if key in delta:
                raise SchemaError(
                    f'document says "pdfa" but transitions from {t.src!r} on {t.label!r} clash'
                )
            delta[key] = t.dst
        return PDfa(states, alphabet, delta), root
    return MNfa(states, alphabet, transitions), root


def tree_from_doc_by_fields(doc: Any) -> DiscTree:
    """The tree reader that checks every row with ``_require_fields``."""
    _require_fields(doc, {"radius", "root", "nodes", "edges"}, {"alphabet"}, "tree")
    if not _is_int(doc["radius"]):
        raise SchemaError("radius must be an integer")
    if not isinstance(doc["root"], str):
        raise SchemaError("root must be a node id")
    for key in ("nodes", "edges"):
        if not isinstance(doc[key], list):
            raise SchemaError(f"{key} must be a list")
    labels: dict[Node, str] = {}
    for nd in doc["nodes"]:
        _require_fields(nd, {"id", "label"}, set(), "node")
        if not (isinstance(nd["id"], str) and isinstance(nd["label"], str)):
            raise SchemaError("node id and label must be strings")
        if nd["id"] in labels:
            raise SchemaError(f"duplicate node id {nd['id']!r}")
        labels[nd["id"]] = nd["label"]
    if doc["root"] not in labels:
        raise SchemaError("root is not a listed node")
    listed: list[tuple[Node, str, Node]] = []
    letters: set[str] = set()
    for ed in doc["edges"]:
        _require_fields(ed, {"from", "label", "to"}, set(), "edge")
        if not all(isinstance(ed[k], str) for k in ("from", "label", "to")):
            raise SchemaError("edge endpoints and label must be strings")
        u, a, v = ed["from"], ed["label"], ed["to"]
        if u not in labels or v not in labels:
            raise SchemaError(f"edge ({u!r}, {a!r}, {v!r}) references unknown node")
        letters.add(a)
        listed.append((u, a, v))
    if "alphabet" in doc:
        alphabet = alphabet_from_doc(doc["alphabet"])
        if not letters <= alphabet.letters:
            raise SchemaError("edge letters outside the declared alphabet")
    else:
        base = {a for a in letters if not a.endswith("^-1")}
        base |= {a[: -len("^-1")] for a in letters if a.endswith("^-1")}
        alphabet = involutive_closure(sorted(base) if base else ["a"])

    # Each listed edge stands for an involutive pair and may be written in
    # either orientation; BFS from the root over the symmetric adjacency
    # orients everything parent-to-child.
    adj: dict[Node, list[tuple[str, Node]]] = {v: [] for v in labels}
    for u, a, v in listed:
        adj[u].append((a, v))
        adj[v].append((alphabet.inv(a), u))
    children: dict[Node, tuple[tuple[str, Node], ...]] = {}
    seen = {doc["root"]}
    queue = deque([doc["root"]])
    while queue:
        u = queue.popleft()
        kids: list[tuple[str, Node]] = []
        for a, v in sorted(adj[u], key=lambda e: (e[0], str(e[1]))):
            if v in seen:
                continue
            seen.add(v)
            kids.append((a, v))
            queue.append(v)
        if kids:
            children[u] = tuple(kids)
    if seen != set(labels):
        raise SchemaError("tree document is not connected")
    if len(listed) != len(labels) - 1:
        raise SchemaError("a tree on n nodes must list exactly n-1 edges")
    try:
        return DiscTree(doc["radius"], doc["root"], labels, children, alphabet)
    except ValueError as e:
        raise SchemaError(f"bad tree document: {e}") from e


def dumps_stdlib(doc: Any) -> str:
    """The document writer as the standard library's indenting encoder."""
    return json.dumps(doc, indent=2) + "\n"


def sorted_nodes_by_walk(t: DiscTree) -> list[Node]:
    """The nodes in the order of a breadth-first walk over the ``children``
    view, each node's children in the order the view lists them."""
    order = [t.root]
    for v in order:
        order += [c for _, c in t.children.get(v, ())]
    return order


def _first_bad_node(t: DiscTree, order: list[Node]) -> Node | None:
    """The first node of ``order`` with two equal letters among its edges."""
    for v in order:
        letters = [a for a, _ in t.children.get(v, ())]
        if v in t.parent:
            _, down = t.parent[v]
            letters.append(t.alphabet.inv(down))
        if len(set(letters)) < len(letters):
            return v
    return None


def nondeterministic_vertex_by_walk(t: DiscTree) -> Node | None:
    """The first bad node of a scan of the dict views in breadth-first walk
    order."""
    return _first_bad_node(t, sorted_nodes_by_walk(t))


def nondeterministic_vertex_sorted(t: DiscTree) -> Node | None:
    """The first bad node of a scan in ``sorted_nodes`` order."""
    return _first_bad_node(t, t.sorted_nodes())


def unfold_by_words(
    table: dict[str, tuple], p: str, radius: int, max_nodes: int, alphabet
) -> DiscTree:
    """A disc whose nodes are word tuples, built level by level and handed
    to the ``DiscTree`` constructor as dicts.

    ``table[state]`` lists the (label, step, target) of each edge out of
    ``state``; a child node is its parent's tuple extended by the step.
    """
    if p not in table:
        raise UnknownStateError(f"state {p!r} is not in the automaton")
    root: Word = ()
    labels: dict[Node, str] = {root: p}
    children: dict[Node, tuple[tuple[str, Node], ...]] = {}
    frontier: list[tuple[Node, str]] = [(root, p)]
    for _ in range(radius):
        if not frontier:
            break
        nxt: list[tuple[Node, str]] = []
        for node, state in frontier:
            kids = []
            try:
                edges = table[state]
            except KeyError:
                raise UnknownStateError(f"state {state!r} is not in the automaton") from None
            for label, step, target in edges:
                child = node + (step,)
                labels[child] = target
                kids.append((label, child))
                nxt.append((child, target))
            if kids:
                children[node] = tuple(kids)
            if len(labels) > max_nodes:
                raise MaterializationLimitError(f"unfolding would exceed {max_nodes} nodes")
        frontier = nxt
    return DiscTree(radius, root, labels, children, alphabet)


def unfold_pdfa_by_words(d: PDfa, p: str, radius: int, max_nodes: int = DEFAULT_MAX_NODES) -> DiscTree:
    """``unfold_pdfa`` through an edge table over every state and word tuples."""
    table = {s: tuple((a, a, d.delta[(s, a)]) for a in sorted(d.out_set(s))) for s in d.states}
    return unfold_by_words(table, p, radius, max_nodes, d.alphabet)


def unfold_mnfa_by_words(m: MNfa, p: str, radius: int, max_nodes: int = DEFAULT_MAX_NODES) -> DiscTree:
    """``unfold_mnfa`` through an edge table over every state and word tuples."""
    table = {s: tuple((t.label, t.tid, t.dst) for t in m.transitions_from(s)) for s in m.states}
    return unfold_by_words(table, p, radius, max_nodes, m.alphabet)


def canonical_forms_by_handle(trees: list[DiscTree]) -> list[dict[Node, int]]:
    """Bottom-up shape ids keyed by handle, shared across ``trees``."""
    table: dict[tuple, int] = {}
    result = []
    for t in trees:
        forms: dict[Node, int] = {}
        for v in sorted(t.labels, key=lambda u: -t.level[u]):
            key = tuple(sorted((a, forms[c]) for a, c in t.children.get(v, ())))
            forms[v] = table.setdefault(key, len(table))
        result.append(forms)
    return result


def tree_to_doc_by_views(t: DiscTree, order: list[Node]) -> dict:
    """The tree document of ``t`` with its nodes listed in ``order``."""
    ids = {v: f"v{i}" for i, v in enumerate(order)}
    return {
        "radius": t.radius,
        "root": ids[t.root],
        "alphabet": alphabet_to_doc(t.alphabet),
        "nodes": [{"id": ids[v], "label": t.labels[v]} for v in order],
        "edges": [
            {"from": ids[v], "label": a, "to": ids[c]}
            for v in order
            for a, c in t.children.get(v, ())
        ],
    }


def pdfa_doc_by_delta(d: PDfa, root: str | None = None) -> dict:
    """The pdfa document of ``d``, its rows from the sorted ``delta`` map."""
    rows = [{"id": i, "from": p, "label": a, "to": q} for i, ((p, a), q) in enumerate(sorted(dict(d.delta).items()))]
    doc = {"alphabet": alphabet_to_doc(d.alphabet), "kind": "pdfa", "states": sorted(d.states), "transitions": rows}
    if root is not None:
        doc["root"] = root
    return doc


def export_dot_pdfa_by_delta(d: PDfa) -> str:
    """The DOT text of ``d``, its edges from the sorted ``delta`` map."""
    lines = ["digraph {"]
    lines += [f"  {_dot_quote(s)};" for s in sorted(d.states)]
    for (p, a), q in sorted(dict(d.delta).items()):
        lines.append(f"  {_dot_quote(p)} -> {_dot_quote(q)} [label={_dot_quote(a)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot_by_views(t: DiscTree, order: list[Node]) -> str:
    """The DOT text of ``t`` with its nodes listed in ``order``."""
    ids = {v: f"n{i}" for i, v in enumerate(order)}
    lines = ["digraph {"]
    for v in order:
        text = f"{_word_text(v)} : {t.labels[v]}"
        lines.append(f"  {ids[v]} [label={_dot_quote(text)}];")
    for v in order:
        for a, c in t.children.get(v, ()):
            lines.append(f"  {ids[v]} -> {ids[c]} [label={_dot_quote(a)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def compress_finite_tree_by_views(t: DiscTree) -> tuple[PDfa, str]:
    """``compress_finite_tree`` on the dict views, with the nodes taken in
    breadth-first walk order."""
    bad = nondeterministic_vertex_by_walk(t)
    if bad is not None:
        raise NondeterministicTreeError(f"involutive closure is not deterministic at node {bad!r}")
    (forms,) = canonical_forms_by_handle([t])
    state_of_form: dict[int, str] = {}
    rep_of_form: dict[int, Node] = {}
    for v in sorted_nodes_by_walk(t):
        if forms[v] not in state_of_form:
            state_of_form[forms[v]] = f"c{len(state_of_form)}"
            rep_of_form[forms[v]] = v
    delta = {
        (state_of_form[f], a): state_of_form[forms[c]]
        for f, rep in rep_of_form.items()
        for a, c in t.children.get(rep, ())
    }
    return PDfa(state_of_form.values(), t.alphabet, delta), state_of_form[forms[t.root]]


def trim_by_delta(d: PDfa, root: str) -> PDfa:
    """``trim`` of a pDFA as a filter over its ``delta`` map."""
    if root not in d.states:
        raise UnknownStateError(f"state {root!r} is not in the automaton")
    out: dict[str, list[str]] = {}
    for (p, _), q in d.delta.items():
        out.setdefault(p, []).append(q)
    keep = {root}
    frontier = [root]
    while frontier:
        frontier = [q for p in frontier for q in out.get(p, ()) if q not in keep]
        keep.update(frontier)
    return PDfa(keep, d.alphabet, {(p, a): q for (p, a), q in d.delta.items() if p in keep})


def reroot_along_word_by_delta(d: PDfa, root: str, w) -> tuple[PDfa, str]:
    """``reroot_along_word`` on the ``delta`` map: read ``w`` on the map,
    add the path copies to a copy of the map, named as the library names
    them, and filter the result with ``trim_by_delta``."""
    require_reduced(d, "input")
    if root not in d.states:
        raise UnknownStateError(f"state {root!r} is not in the automaton")
    end = root
    for x in w:
        end = d.delta.get((end, x))
        if end is None:
            break
    if end is None:
        raise WordNotInLanguageError(f"word {','.join(w) or 'eps'} is not readable from {root!r}")
    if not w:
        return trim_by_delta(d, root), root
    edges: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for (p, x), t in d.delta.items():
        edges[p].append((x, t))
    delta = dict(d.delta)
    taken = set(d.states)

    def fresh(name: str) -> str:
        name = _fresh(name, taken)
        taken.add(name)
        return name

    s, here, prev = root, root, None
    for i, a in enumerate(w):
        copy = fresh(f"{here}@p{i}")
        delta.update(((copy, x), t) for x, t in edges[s] if x != a)
        if prev is not None:
            delta[(copy, d.alphabet.inv(w[i - 1]))] = prev
        prev, s = copy, d.delta[(s, a)]
        here = fresh(f"{s}@q{i}")
    delta.update(((here, x), t) for x, t in edges[s])
    delta[(here, d.alphabet.inv(w[-1]))] = prev
    return trim_by_delta(PDfa(taken, d.alphabet, delta), here), here
