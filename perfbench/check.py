"""Answer checks written independently of the code being timed.

Each check works on plain dictionaries (``delta[(state, letter)] = state``)
or on parsed JSON, and uses none of ``cftree``'s algorithms.  The one
exception, named by the workload that uses it, is
``cftree.verify_nonrooted_witness``, which re-roots and compares and is run
outside the timed region.
"""

from __future__ import annotations

from collections import deque

Delta = dict[tuple[str, str], str]


def reaches(n: int, edges: list[tuple[int, int]]) -> bool:
    """Breadth-first reachability from node 0 to node n-1."""
    succ: dict[int, list[int]] = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        if u == n - 1:
            return True
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False


def readable(delta: Delta, root: str, word) -> bool:
    cur = root
    for x in word:
        cur = delta.get((cur, x))
        if cur is None:
            return False
    return True


def one_side_only(da: Delta, ra: str, db: Delta, rb: str, word, side: str) -> bool:
    """``word`` is readable from exactly the side named by ``side``."""
    left, right = readable(da, ra, word), readable(db, rb, word)
    return left != right and side == ("left" if left else "right")


def out_letters(delta: Delta) -> dict[str, frozenset[str]]:
    out: dict[str, set[str]] = {}
    for (p, x) in delta:
        out.setdefault(p, set()).add(x)
    return {p: frozenset(v) for p, v in out.items()}


def same_language(da: Delta, ra: str, db: Delta, rb: str) -> bool:
    """Language equality of two states, by search over reachable pairs."""
    oa, ob = out_letters(da), out_letters(db)
    empty: frozenset[str] = frozenset()
    seen = {(ra, rb)}
    queue = deque(seen)
    while queue:
        p, q = queue.popleft()
        letters = oa.get(p, empty)
        if letters != ob.get(q, empty):
            return False
        for x in letters:
            nxt = (da[(p, x)], db[(q, x)])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def language_classes(states: list[str], delta: Delta) -> dict[str, str]:
    """Map each state to the smallest name of its language-equality class.

    Moore's refinement: start from the out-letter sets, split by the classes
    of the successors until nothing splits.
    """
    out = out_letters(delta)
    letters = sorted({x for (_, x) in delta})
    block = {p: out.get(p, frozenset()) for p in states}
    n_blocks = len(set(block.values()))
    while True:
        sig = {
            p: (block[p], tuple(block.get(delta.get((p, x)), None) for x in letters))
            for p in states
        }
        ids: dict = {}
        block = {p: ids.setdefault(sig[p], len(ids)) for p in states}
        if len(ids) == n_blocks:
            break
        n_blocks = len(ids)
    rep: dict = {}
    for p in sorted(states):
        rep.setdefault(block[p], p)
    return {p: rep[block[p]] for p in states}


def doc_delta(doc: dict) -> Delta:
    return {(t["from"], t["label"]): t["to"] for t in doc["transitions"]}


def doc_transitions(doc: dict) -> set[tuple[str, str, str]]:
    return {(t["from"], t["label"], t["to"]) for t in doc["transitions"]}


def words_upto(delta: Delta, root: str, radius: int) -> dict[tuple[str, ...], str]:
    """Every word of length at most ``radius`` readable from ``root``, with
    the state it reaches."""
    out: dict[str, list[str]] = {}
    for (p, x) in sorted(delta):
        out.setdefault(p, []).append(x)
    words = {(): root}
    frontier = [((), root)]
    for _ in range(radius):
        nxt = []
        for w, p in frontier:
            for x in out.get(p, ()):
                q = delta[(p, x)]
                words[w + (x,)] = q
                nxt.append((w + (x,), q))
        frontier = nxt
    return words


def tree_doc_words(doc: dict) -> dict[tuple[str, ...], str] | None:
    """Words naming the nodes of a tree document, with the node labels.

    Edges must point away from the root; returns None otherwise.
    """
    kids: dict[str, list[tuple[str, str]]] = {}
    for e in doc["edges"]:
        kids.setdefault(e["from"], []).append((e["label"], e["to"]))
    labels = {nd["id"]: nd["label"] for nd in doc["nodes"]}
    words = {(): labels[doc["root"]]}
    stack = [((), doc["root"])]
    while stack:
        w, v = stack.pop()
        for x, c in kids.get(v, ()):
            if w + (x,) in words:
                return None
            words[w + (x,)] = labels[c]
            stack.append((w + (x,), c))
    return words if len(words) == len(labels) else None


def subtree_shapes(edges: list[tuple[tuple[str, ...], str, tuple[str, ...]]]) -> int:
    """Number of distinct rooted subtree shapes in a tree given by its
    parent-to-child edges over word-named nodes."""
    kids: dict[tuple[str, ...], list[tuple[str, tuple[str, ...]]]] = {}
    nodes = {()}
    for u, x, v in edges:
        kids.setdefault(u, []).append((x, v))
        nodes.add(v)
    shape: dict[tuple[str, ...], int] = {}
    table: dict[tuple, int] = {}
    for v in sorted(nodes, key=len, reverse=True):
        key = tuple(sorted((x, shape[c]) for x, c in kids.get(v, ())))
        shape[v] = table.setdefault(key, len(table))
    return len(table)
