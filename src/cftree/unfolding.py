"""Finite-radius unfolding of the tree generated from an automaton state.

The infinite tree of runs is materialized only as a disc: all nodes within a
given distance of the root.  Nodes of a pDFA unfolding are words (tuples of
letters); nodes of an mNFA unfolding are run prefixes (tuples of transition
ids).  No operation here ever inspects node identity, so discs loaded from
JSON with opaque string ids behave the same.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Iterator

from .alphabet import InvolutiveAlphabet
from .automata import MNfa, PDfa
from .errors import (
    MaterializationLimitError,
    RadiusMismatchError,
    UnknownNodeError,
    UnknownStateError,
)

Node = Hashable
Word = tuple[str, ...]

#: Default ceiling on materialized nodes/words, to keep accidental huge radii
#: from exhausting memory.
DEFAULT_MAX_NODES = 2**20


def _node_sort_key(v: Node):
    return (type(v).__name__, repr(v))


def _last_step_key(w: Word) -> str:
    return repr(w[-1])


class DiscTree:
    """A finite rooted involutive tree of bounded radius.

    Stored as parent-to-child edges; the inverse edges of the involutive
    closure are derived on demand.  ``radius`` is the validity bound of the
    disc and may exceed the actual height.
    """

    __slots__ = ("radius", "root", "labels", "children", "alphabet", "level", "parent")

    def __init__(
        self,
        radius: int,
        root: Node,
        labels: dict[Node, str],
        children: dict[Node, tuple[tuple[str, Node], ...]],
        alphabet: InvolutiveAlphabet,
    ):
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if root not in labels:
            raise ValueError("root must be a labeled node")
        self.radius = radius
        self.root = root
        self.labels = labels
        self.children = children
        self.alphabet = alphabet
        level: dict[Node, int] = {root: 0}
        parent: dict[Node, tuple[Node, str]] = {}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for a, c in children.get(v, ()):
                if c in level:
                    raise ValueError(f"node {c!r} has two parents")
                if c not in labels:
                    raise ValueError(f"child node {c!r} is not labeled")
                level[c] = level[v] + 1
                parent[c] = (v, a)
                queue.append(c)
        if len(level) != len(labels):
            raise ValueError("some labeled nodes are not reachable from the root")
        if level and max(level.values()) > radius:
            raise ValueError("node level exceeds the declared radius")
        self.level = level
        self.parent = parent

    @property
    def nodes(self) -> Iterable[Node]:
        return self.labels.keys()

    def __len__(self) -> int:
        return len(self.labels)

    def height(self) -> int:
        return max(self.level.values())

    def children_of(self, v: Node) -> tuple[tuple[str, Node], ...]:
        if v not in self.labels:
            raise UnknownNodeError(f"node {v!r} is not in the tree")
        return self.children.get(v, ())

    def down_edges(self) -> Iterator[tuple[Node, str, Node]]:
        """One edge per involutive pair, oriented from parent to child."""
        for v in self.labels:
            for a, c in self.children.get(v, ()):
                yield (v, a, c)

    def closure_edges(self) -> Iterator[tuple[Node, str, Node]]:
        """All edges of the involutive closure."""
        for v, a, c in self.down_edges():
            yield (v, a, c)
            yield (c, self.alphabet.inv(a), v)

    def sorted_nodes(self) -> list[Node]:
        """Nodes by level, then by type name and ``repr`` within a level.

        When every node but the root is a word that extends its parent's by
        one ``str`` or ``int`` step, as unfolding makes them, the order is
        built breadth-first without the ``repr`` of a whole word, which
        costs time quadratic in the depth: two words of one length compare
        by ``repr`` as the reprs of the first step at which they differ
        (no ``str`` repr is a prefix of another, and the separators after a
        step sort below digits), so a word's place within its level is its
        parent's place, then the ``repr`` of its last step.
        """
        words = all(
            type(c) is tuple and c[:-1] == v and type(c[-1]) in (str, int)
            for v, kids in self.children.items()
            for _, c in kids
        )
        if not words:
            return sorted(self.labels, key=lambda v: (self.level[v], _node_sort_key(v)))
        order = [self.root]
        for v in order:  # ``order`` grows while it is read: a breadth-first walk
            order += sorted((c for _, c in self.children.get(v, ())), key=_last_step_key)
        return order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscTree):
            return NotImplemented
        return (
            self.radius == other.radius
            and self.root == other.root
            and self.labels == other.labels
            and self.children == other.children
            and self.alphabet == other.alphabet
        )

    def __repr__(self) -> str:
        return f"DiscTree(radius={self.radius}, nodes={len(self.labels)})"


def _unfold(
    table: dict[str, tuple], p: str, radius: int, max_nodes: int, alphabet: InvolutiveAlphabet
) -> DiscTree:
    # ``table[state]`` lists the (label, step, target) of each edge out of
    # ``state``; a child node is its parent's tuple extended by the step.
    if p not in table:
        raise UnknownStateError(f"state {p!r} is not in the automaton")
    root: Word = ()
    labels: dict[Node, str] = {root: p}
    children: dict[Node, tuple[tuple[str, Node], ...]] = {}
    frontier: list[tuple[Node, str]] = [(root, p)]
    for _ in range(radius):
        if not frontier:  # every branch ended: a larger radius adds nothing
            break
        nxt: list[tuple[Node, str]] = []
        for node, state in frontier:
            kids = []
            try:
                edges = table[state]
            except KeyError:  # an edge into a state the automaton lacks
                raise UnknownStateError(f"state {state!r} is not in the automaton") from None
            for label, step, target in edges:
                child = node + (step,)
                labels[child] = target
                kids.append((label, child))
                nxt.append((child, target))
            if kids:
                children[node] = tuple(kids)
            if len(labels) > max_nodes:
                raise MaterializationLimitError(
                    f"unfolding would exceed {max_nodes} nodes"
                )
        frontier = nxt
    return DiscTree(radius, root, labels, children, alphabet)


def unfold_mnfa(m: MNfa, p: str, radius: int, max_nodes: int = DEFAULT_MAX_NODES) -> DiscTree:
    """Disc of the run tree of ``m`` started in ``p``.

    Nodes are runs (tuples of transition ids) of length at most ``radius``;
    each node is labeled with the state its run ends in.
    """
    table = {
        s: tuple((t.label, t.tid, t.dst) for t in m.transitions_from(s))
        for s in m.states
    }
    return _unfold(table, p, radius, max_nodes, m.alphabet)


def unfold_pdfa(d: PDfa, p: str, radius: int, max_nodes: int = DEFAULT_MAX_NODES) -> DiscTree:
    """Disc of the tree generated from state ``p`` of a pDFA.

    Nodes are the words of length at most ``radius`` readable from ``p``; the
    parent of ``wa`` is ``w`` and labels record the state reached.
    """
    ix = d._indexed()
    table = {s: tuple((a, a, t) for a, t in ix.edges(s)) for s in d.states}
    return _unfold(table, p, radius, max_nodes, d.alphabet)


def _canonical_forms(trees: list[DiscTree]) -> list[dict[Node, int]]:
    # Forms are interned in a table shared across the given trees, so equal
    # ids mean isomorphic (unlabeled) subtrees even across trees.
    table: dict[tuple, int] = {}
    result = []
    for t in trees:
        forms: dict[Node, int] = {}
        for v in sorted(t.labels, key=lambda u: -t.level[u]):
            key = tuple(sorted((a, forms[c]) for a, c in t.children.get(v, ())))
            forms[v] = table.setdefault(key, len(table))
        result.append(forms)
    return result


def _labeled_iso_exists(x: DiscTree, y: DiscTree, fx: dict[Node, int], fy: dict[Node, int]) -> bool:
    # Search for a bijection beta on node labels together with a rooted
    # isomorphism.  Equal canonical forms already settle the shape, so only
    # the labels need a search.  Pending work is a linked list (item, rest)
    # of (xs, ys) node lists whose nodes all share one (letter, form) key.
    # Only an item of two or more nodes branches: its choice point keeps the
    # rest of the work (shared, never copied), the trail length and the next
    # candidate in ys, and backtracking undoes beta along the trail.  On a
    # pDFA disc every item is one node, so this is a plain lockstep walk.
    beta: dict[str, str] = {}
    beta_inv: dict[str, str] = {}
    trail: list[str] = []
    choices: list[tuple] = []
    work: tuple | None = (((x.root,), (y.root,)), None)
    j = 0
    while work is not None:
        (xs, ys), rest = work
        if j + 1 < len(ys):
            choices.append((xs, ys, j + 1, rest, len(trail)))
        v, w = xs[0], ys[j]
        lv, lw = x.labels[v], y.labels[w]
        if beta.get(lv, lw) == lw and beta_inv.get(lw, lv) == lv:
            if lv not in beta:
                beta[lv] = lw
                beta_inv[lw] = lv
                trail.append(lv)
            if len(xs) > 1:
                rest = ((xs[1:], ys[:j] + ys[j + 1 :]), rest)
            groups: dict[tuple[str, int], tuple[list[Node], list[Node]]] = {}
            for a, c in x.children.get(v, ()):
                groups.setdefault((a, fx[c]), ([], []))[0].append(c)
            for a, c in y.children.get(w, ()):
                groups[(a, fy[c])][1].append(c)
            for item in groups.values():
                rest = (item, rest)
            work, j = rest, 0
        elif choices:
            xs, ys, j, rest, mark = choices.pop()
            while len(trail) > mark:
                del beta_inv[beta.pop(trail.pop())]
            work = ((xs, ys), rest)
        else:
            return False
    return True


def disc_equal_rooted(x: DiscTree, y: DiscTree, *, use_labels: bool = False) -> bool:
    """Decide rooted isomorphism of two discs of equal radius.

    Without labels this compares bottom-up canonical forms: a node's form is
    the sorted multiset of (letter, child form) pairs.  With labels it
    additionally requires a bijection between the label sets that commutes
    with some rooted isomorphism.  The labeled search is complete (it backs
    out of any choice among same-shaped children that a later node refutes)
    and runs on explicit stacks, so it has no depth limit.
    """
    if x.radius != y.radius:
        raise RadiusMismatchError(f"radii differ: {x.radius} vs {y.radius}")
    fx, fy = _canonical_forms([x, y])
    if fx[x.root] != fy[y.root]:
        return False
    if not use_labels:
        return True
    return _labeled_iso_exists(x, y, fx, fy)


def end_cone(t: DiscTree, v: Node) -> DiscTree:
    """The descendant subtree of ``v``, re-rooted at ``v``.

    Its radius is what remains of the disc below ``v``; in a tree, ``v`` is
    the unique frontier point of its end-cone.
    """
    if v not in t.labels:
        raise UnknownNodeError(f"node {v!r} is not in the tree")
    labels: dict[Node, str] = {}
    children: dict[Node, tuple[tuple[str, Node], ...]] = {}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        labels[u] = t.labels[u]
        kids = t.children.get(u, ())
        if kids:
            children[u] = kids
            queue.extend(c for _, c in kids)
    return DiscTree(t.radius - t.level[v], v, labels, children, t.alphabet)


def reroot_disc(t: DiscTree, v: Node) -> DiscTree:
    """The same involutive graph with the root moved to ``v``.

    A disc of radius ``r`` only determines the re-rooted tree out to distance
    ``r - level(v)`` from ``v``, so the result is truncated to that radius.
    """
    if v not in t.labels:
        raise UnknownNodeError(f"node {v!r} is not in the tree")
    new_radius = t.radius - t.level[v]
    labels: dict[Node, str] = {v: t.labels[v]}
    children: dict[Node, tuple[tuple[str, Node], ...]] = {}
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        if dist[u] == new_radius:
            continue
        kids: list[tuple[str, Node]] = []
        if u in t.parent:
            par, letter = t.parent[u]
            if par not in dist:
                kids.append((t.alphabet.inv(letter), par))
        for a, c in t.children.get(u, ()):
            if c not in dist:
                kids.append((a, c))
        for a, c in kids:
            dist[c] = dist[u] + 1
            labels[c] = t.labels[c]
            queue.append(c)
        if kids:
            children[u] = tuple(kids)
    return DiscTree(new_radius, v, labels, children, t.alphabet)


def truncate(t: DiscTree, radius: int) -> DiscTree:
    """Restriction of the disc to the nodes of level at most ``radius``."""
    if radius > t.radius:
        raise RadiusMismatchError(f"cannot extend a disc of radius {t.radius} to {radius}")
    labels = {v: lab for v, lab in t.labels.items() if t.level[v] <= radius}
    children = {
        v: kids
        for v, kids in t.children.items()
        if t.level[v] < radius
    }
    return DiscTree(radius, t.root, labels, children, t.alphabet)


def nondeterministic_vertex(t: DiscTree) -> Node | None:
    """A node whose involutive closure has two equal-labeled outgoing edges.

    Of several such nodes, the first in ``sorted_nodes`` order, found
    without sorting the tree.
    """
    bad = []
    for v in t.labels:
        letters = [a for a, _ in t.children.get(v, ())]
        if v in t.parent:
            _, down = t.parent[v]
            letters.append(t.alphabet.inv(down))
        if len(set(letters)) < len(letters):
            bad.append(v)
    return min(bad, key=lambda v: (t.level[v], _node_sort_key(v)), default=None)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _word_text(v: Node) -> str:
    if isinstance(v, tuple):
        return ",".join(str(part) for part in v) if v else "eps"
    return str(v) if str(v) else "eps"


def export_dot(obj: DiscTree | MNfa | PDfa) -> str:
    """Render a disc or an automaton as DOT text.

    For trees, one edge is drawn per involutive pair (parent to child); for
    automata every transition is drawn.  Output ordering is fully
    deterministic, so repeated runs are byte-identical.
    """
    lines = ["digraph {"]
    if isinstance(obj, DiscTree):
        order = obj.sorted_nodes()
        ids = {v: f"n{i}" for i, v in enumerate(order)}
        for v in order:
            text = f"{_word_text(v)} : {obj.labels[v]}"
            lines.append(f"  {ids[v]} [label={_dot_quote(text)}];")
        for v in order:
            for a, c in obj.children.get(v, ()):
                lines.append(f"  {ids[v]} -> {ids[c]} [label={_dot_quote(a)}];")
    elif isinstance(obj, MNfa):
        for s in sorted(obj.states):
            lines.append(f"  {_dot_quote(s)};")
        for t in sorted(obj.transitions, key=lambda t: (t.src, t.label, t.dst, t.tid)):
            lines.append(f"  {_dot_quote(t.src)} -> {_dot_quote(t.dst)} [label={_dot_quote(t.label)}];")
    elif isinstance(obj, PDfa):
        for s in sorted(obj.states):
            lines.append(f"  {_dot_quote(s)};")
        for (p, a), q in sorted(obj.delta.items()):
            lines.append(f"  {_dot_quote(p)} -> {_dot_quote(q)} [label={_dot_quote(a)}];")
    else:
        raise TypeError(f"cannot export {type(obj).__name__} as DOT")
    lines.append("}")
    return "\n".join(lines) + "\n"
