"""Seeded instance generators for the benchmark.

They live here, not in the test suite, so that an edit to the tests cannot
silently change what the benchmark measures.  Every generator returns plain
data (strings, tuples, dicts) and depends only on the ``random.Random`` it
is given: the same seed gives the same instances in every process.  Nothing
here imports ``cftree``.
"""

from __future__ import annotations

import random

# The free group on {a, b}, spelled as ``cftree.involutive_closure`` spells it.
LETTERS = ("a", "a^-1", "b", "b^-1")
INV = {"a": "a^-1", "a^-1": "a", "b": "b^-1", "b^-1": "b"}


def random_reduced_pdfa(
    rng: random.Random, n: int, extra_density: float = 0.6
) -> tuple[list[str], dict[tuple[str, str], str], str]:
    """A reduced pDFA over {a,b}^±1 with every state reachable from ``s0``.

    A random spanning tree makes every state reachable; then about
    ``extra_density * n * 4`` random edges are tried.  An edge ``p -x-> q``
    is added only if it keeps the automaton reduced: no ``x x^-1`` path may
    pass through ``p`` or ``q``.  Returns ``(states, delta, root)``.
    """
    states = [f"s{i}" for i in range(n)]
    delta: dict[tuple[str, str], str] = {}
    into: dict[str, set[str]] = {s: set() for s in states}

    def can_add(p: str, x: str, q: str) -> bool:
        ix = INV[x]
        return (p, x) not in delta and (q, ix) not in delta and ix not in into[p]

    def add(p: str, x: str, q: str) -> None:
        delta[(p, x)] = q
        into[q].add(x)

    for i in range(1, n):
        while True:
            p = states[rng.randrange(i)]
            x = rng.choice(LETTERS)
            if can_add(p, x, states[i]):
                add(p, x, states[i])
                break
    for _ in range(int(extra_density * n * len(LETTERS))):
        p, x, q = rng.choice(states), rng.choice(LETTERS), rng.choice(states)
        if can_add(p, x, q):
            add(p, x, q)
    return states, delta, states[0]


def readable_word(
    rng: random.Random, delta: dict[tuple[str, str], str], root: str, length: int
) -> tuple[str, ...]:
    """A random walk from ``root`` of ``length`` letters, or as long as the
    longest walk from ``root`` if that is shorter.

    In a reduced pDFA every walk spells a reduced word.  Each step picks at
    random among the letters after which the rest of the word still fits.
    """
    out: dict[str, list[str]] = {}
    for (p, x) in sorted(delta):
        out.setdefault(p, []).append(x)
    # reach[p]: the longest walk from p, capped at ``length``.
    reach: dict[str, int] = {}
    for _ in range(length):
        reach = {p: min(length, 1 + max(reach.get(delta[(p, x)], 0) for x in xs)) for p, xs in out.items()}
    word: list[str] = []
    cur = root
    while len(word) < length and out.get(cur):
        best = max(reach.get(delta[(cur, x)], 0) for x in out[cur])
        need = min(best, length - len(word) - 1)
        x = rng.choice([x for x in out[cur] if reach.get(delta[(cur, x)], 0) >= need])
        word.append(x)
        cur = delta[(cur, x)]
    return tuple(word)


def cycle_word(
    rng: random.Random, delta: dict[tuple[str, str], str], root: str, length: int
) -> tuple[str, ...]:
    """A readable word of exactly ``length`` letters that goes round a cycle.

    Walks from ``root`` to a state on a cycle, then repeats the cycle.  Only
    used on automata where every state reads at least one letter, so such
    a cycle exists.
    """
    out: dict[str, list[str]] = {}
    for (p, x) in sorted(delta):
        out.setdefault(p, []).append(x)
    path: list[str] = []
    seen = {root: 0}
    cur = root
    while True:
        x = rng.choice(out[cur])
        path.append(x)
        cur = delta[(cur, x)]
        if cur in seen:
            break
        seen[cur] = len(path)
    lead, loop = path[: seen[cur]], path[seen[cur]:]
    word = list(lead)
    while len(word) < length:
        word.extend(loop)
    return tuple(word[:length])


def total_reduced_pdfa(
    rng: random.Random, n: int
) -> tuple[list[str], dict[tuple[str, str], str], str]:
    """A random reduced pDFA in which every state reads at least one letter.

    Every generated tree is then infinite, so words of any length are
    readable and re-rooting along a long word stays inside the automaton.
    """
    while True:
        states, delta, root = random_reduced_pdfa(rng, n)
        readers = {p for (p, _) in delta}
        if len(readers) == len(states):
            return states, delta, root
        # Give each silent state a loop on a letter it cannot conflict with.
        for p in states:
            if p in readers:
                continue
            into = {x for (_, x), q in delta.items() if q == p}
            for x in LETTERS:
                if INV[x] not in into:
                    delta[(p, x)] = p
                    break
        if len({p for (p, _) in delta}) == len(states):
            return states, delta, root


def rename(
    rng: random.Random, states: list[str], delta: dict[tuple[str, str], str], prefix: str
) -> tuple[list[str], dict[tuple[str, str], str], dict[str, str]]:
    """A copy with states renamed by a random permutation."""
    order = list(range(len(states)))
    rng.shuffle(order)
    name = {s: f"{prefix}{order[i]}" for i, s in enumerate(states)}
    return (
        [name[s] for s in states],
        {(name[p], x): name[q] for (p, x), q in delta.items()},
        name,
    )


def reroot(
    delta: dict[tuple[str, str], str], root: str, word: tuple[str, ...]
) -> tuple[list[str], dict[tuple[str, str], str], str]:
    """Re-root the tree generated from ``root`` at the node named by ``word``.

    Single pass over the path: node ``j`` of the path gets a fresh state
    ``r{j}`` with the out-edges of the state it copies, minus the edge that
    continues along the path, plus an inverse edge back to ``r{j-1}``.  The
    result is trimmed to the states reachable from the new root.
    """
    path = [root]
    for x in word:
        path.append(delta[(path[-1], x)])
    out: dict[str, list[tuple[str, str]]] = {}
    for (p, x), q in delta.items():
        out.setdefault(p, []).append((x, q))
    k = len(word)
    new = dict(delta)
    for j, s in enumerate(path):
        for x, q in out.get(s, ()):
            if not (j < k and x == word[j]):
                new[(f"r{j}", x)] = q
        if j > 0:
            new[(f"r{j}", INV[word[j - 1]])] = f"r{j - 1}"
    new_root = f"r{k}"
    keep = reachable(new, new_root)
    states = sorted(keep)
    return states, {(p, x): q for (p, x), q in new.items() if p in keep}, new_root


def reachable(delta: dict[tuple[str, str], str], root: str) -> set[str]:
    succ: dict[str, list[str]] = {}
    for (p, _), q in delta.items():
        succ.setdefault(p, []).append(q)
    seen = {root}
    stack = [root]
    while stack:
        for q in succ.get(stack.pop(), ()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def gap2_graph(rng: random.Random, n: int, planted: bool) -> list[tuple[int, int]]:
    """A directed graph on 0..n-1 with out-degree at most two.

    With ``planted`` a random simple path 0 -> ... -> n-1 of length about
    n/8 is laid first.  Without it the nodes are split into a side holding
    0 and a side holding n-1, and no edge leads from the first side to the
    second, so n-1 is unreachable from 0.  Random edges then fill each node
    up to a random out-degree of at most two.
    """
    out: dict[int, list[int]] = {u: [] for u in range(n)}
    if planted:
        inner = rng.sample(range(1, n - 1), max(1, n // 8))
        path = [0, *inner, n - 1]
        for u, v in zip(path, path[1:]):
            out[u].append(v)
        source_side = None
    else:
        source_side = [False] * n
        for u in rng.sample(range(1, n - 1), (n - 2) // 2):
            source_side[u] = True
        source_side[0] = True
    for u in range(n):
        want = rng.choice((0, 1, 2, 2, 2))
        tries = 0
        while len(out[u]) < want and tries < 8:
            tries += 1
            v = rng.randrange(n)
            if v in out[u]:
                continue
            if source_side is not None and source_side[u] and not source_side[v]:
                continue
            out[u].append(v)
    return sorted((u, v) for u in range(n) for v in out[u])


def munn_tree(
    rng: random.Random, n_nodes: int
) -> tuple[list[tuple[str, ...]], list[tuple[tuple[str, ...], str, tuple[str, ...]]]]:
    """The Munn tree of a random walk in the Cayley graph of the free group.

    Nodes are reduced words over {a,b}^±1, edges join ``w`` to ``w x``.
    The walk goes on until ``n_nodes`` distinct nodes are visited.  Returns
    the nodes in visiting order and the parent-to-child edges.
    """
    cur: tuple[str, ...] = ()
    nodes = [cur]
    seen = {cur}
    edges: list[tuple[tuple[str, ...], str, tuple[str, ...]]] = []
    while len(nodes) < n_nodes:
        x = rng.choice(LETTERS)
        if cur and cur[-1] == INV[x]:
            cur = cur[:-1]
            continue
        nxt = cur + (x,)
        if nxt not in seen:
            seen.add(nxt)
            nodes.append(nxt)
            edges.append((cur, x, nxt))
        cur = nxt
    return nodes, edges
