"""Hardness reductions, reused here as instance generators for testing.

Bounded-out-degree graph reachability maps to rooted NON-isomorphism of two
pDFAs built over a binary alphabet with a reachability-prefix gadget, and any
rooted instance lifts to a non-rooted one by hanging both roots on a fresh
marker letter.  Both constructions are metamorphic test generators: the
verdict of the isomorphism engine on the output is forced by an independent,
trivially checkable property of the input.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from operator import itemgetter

from .alphabet import involutive_closure, merge_alphabets
from .automata import PDfa, _require_pair, _sorted_transitions
from .errors import AlphabetError, MaterializationLimitError
from .unfolding import DEFAULT_MAX_NODES

TOP_LETTER = "TOP"


@dataclass(frozen=True)
class Gap2Instance:
    """Directed graph on nodes 0..n-1 with out-degree at most two.

    ``n`` and every endpoint must be of type ``int``, and every edge a pair;
    anything else, a ``bool`` or a ``float`` included, raises ``ValueError``.
    """

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"node count {self.n!r} is not an int")
        if self.n < 1:
            raise ValueError("need at least one node")
        pairs = []
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair of nodes") from None
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) names a node that is not an int")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) leaves the node range")
            pairs.append(e if type(e) is tuple else (u, v))
        edges = frozenset(pairs)
        object.__setattr__(self, "edges", edges)
        for u, count in Counter(map(itemgetter(0), edges)).items():
            if count > 2:
                raise ValueError(f"node {u} has more than two outgoing edges")


def gap2_has_path(g: Gap2Instance) -> bool:
    """Plain BFS reachability from node 0 to node n-1."""
    target = g.n - 1
    succ: dict[int, list[int]] = {}
    for u, v in g.edges:
        succ.setdefault(u, []).append(v)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        if u == target:
            return True
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False


def reduce_gap2_to_rooted_iso(g: Gap2Instance) -> tuple[PDfa, str, PDfa, str]:
    """Encode a reachability instance as a rooted-isomorphism instance.

    The two output automata differ only in the state reached by reading the
    all-zeros address: in the first it is the original source node (a dead
    end exactly when the target is reachable from it), in the second a state
    looping on both letters.  Hence the designated states generate isomorphic
    trees if and only if there is no path from 0 to n-1.

    Construction: drop edges into 0 and out of n-1, pad the node count to a
    power of two by inserting fresh nodes after 0, label the (up to two)
    outgoing edges per node with 0/1 (duplicating single edges, adding two
    self-loops to non-target sinks), then overlay a binary prefix tree
    addressing every node by its padded binary name.  Returns
    ``(a, root_a, b, root_b)``; both roots are the empty-word prefix state.
    Raises ``MaterializationLimitError`` before building anything when an
    output automaton would have more than ``DEFAULT_MAX_NODES`` states.
    """
    if g.n < 2:
        raise ValueError("need at least two nodes")
    ell = (g.n - 1).bit_length()
    size = 1 << ell
    if 2 * size - 1 > DEFAULT_MAX_NODES:  # the states of the padded automaton
        raise MaterializationLimitError(f"reduction would exceed {DEFAULT_MAX_NODES} states")
    pad = size - g.n
    target = size - 1
    # Node i > 0 becomes i + pad, which keeps the order.  lo[u] and hi[u]
    # are u's smaller and larger successor, one and the same for one edge,
    # and -1 for none: with at most two edges per node, no sort is needed.
    lo, hi = [-1] * size, [-1] * size
    for u, v in g.edges:
        if v != 0 and u != g.n - 1:
            u = u + pad if u else 0
            v += pad
            if lo[u] < 0:
                lo[u] = hi[u] = v
            elif v < lo[u]:
                lo[u] = v
            else:
                hi[u] = v

    # levels[k] names the 2^k prefixes of length k in order, so
    # levels[ell][i] is node i's padded binary name; each name is made once.
    levels = [[""]]
    for _ in range(ell):
        levels.append([w + c for w in levels[-1] for c in "01"])
    names = levels[ell]
    alphabet = involutive_closure(["0", "1"])
    delta: dict[tuple[str, str], str] = {}
    for i, (name, x, y) in enumerate(zip(names, lo, hi)):
        if x < 0:
            if i != target:
                delta[(name, "0")] = name
                delta[(name, "1")] = name
        else:
            delta[(name, "0")] = names[x]
            delta[(name, "1")] = names[y]
    states = set(names)
    for k in range(ell):
        below = levels[k + 1]
        states.update(levels[k])
        for prefix, left, right in zip(levels[k], below[0::2], below[1::2]):
            delta[(prefix, "0")] = left
            delta[(prefix, "1")] = right
    a = PDfa(states, alphabet, delta)

    # b differs only at the all-zeros node, which reads 0 and 1 in a.  Edges
    # into node 0 were dropped above, so only its prefix-tree parent enters it.
    zeros = names[0]
    states.remove(zeros)
    states.add("f")
    delta_b = dict(delta)
    del delta_b[(zeros, "0")], delta_b[(zeros, "1")]
    delta_b[(levels[ell - 1][0], "0")] = "f"
    delta_b[("f", "0")] = "f"
    delta_b[("f", "1")] = "f"
    b = PDfa(states, alphabet, delta_b)
    return a, "", b, ""


def reduce_rooted_to_nonrooted(
    a: PDfa, p_root: str, b: PDfa, q_root: str
) -> tuple[PDfa, str, PDfa, str]:
    """Lift a rooted instance to a non-rooted one with a fresh marker letter.

    Each automaton gets a new designated state with a single marker-labeled
    transition onto the old designated state.  The new roots are the only
    nodes of their trees with an outgoing marker edge, so any isomorphism of
    the lifted trees must match them, making the non-rooted verdict on the
    lift equal the rooted verdict on the original.
    """
    merged = _require_pair(a, p_root, b, q_root)
    if TOP_LETTER in merged:
        raise AlphabetError(f"letter {TOP_LETTER!r} is already present")
    alphabet = merge_alphabets(merged, involutive_closure([TOP_LETTER]))

    def lift(d: PDfa, root: str) -> tuple[PDfa, str]:
        new_root = root + "'"
        while new_root in d._indexed().ids:  # every state named, listed or not
            new_root += "'"
        delta = dict(_sorted_transitions(d))
        delta[(new_root, TOP_LETTER)] = root
        return PDfa(d.states | {new_root}, alphabet, delta), new_root

    a2, p2 = lift(a, p_root)
    b2, q2 = lift(b, q_root)
    return a2, p2, b2, q2


__all__ = [
    "Gap2Instance",
    "TOP_LETTER",
    "gap2_has_path",
    "reduce_gap2_to_rooted_iso",
    "reduce_rooted_to_nonrooted",
]
