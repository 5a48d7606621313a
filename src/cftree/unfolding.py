"""Finite-radius unfolding of the tree generated from an automaton state.

The infinite tree of runs is materialized only as a disc: all nodes within a
given distance of the root.  A disc numbers its nodes ``0 .. n-1`` in
``sorted_nodes`` order: one breadth-first walk from the root that lists each
node's children in child order.  So the root is node 0, levels never
decrease and a node's children get consecutive numbers, counted from its
first child's.  Child order is letter order in a pDFA unfolding,
transition-id order in an mNFA unfolding, (letter, id) order in a loaded tree
and the given order for the constructor; a re-rooted disc lists a node's old
parent first, then its children.  It holds flat lists indexed by node number:
the parent, the letter on the edge from the parent, the label, the level and
the number of the first child; no list of children is kept.  Every operation
here works on those numbers.

The unfoldings, the constructor, ``end_cone`` and ``reroot_disc`` build
their discs with one walk each, ``_walk``, which numbers a node and fills
its entries of those lists as it meets it; what sets them apart is only
which children each node is given, the radius the walk stops at and the
node budget.  ``truncate`` keeps the first nodes, with their numbers, so it
cuts the lists instead.  Only ``jsonio.tree_from_doc`` keeps a loop of its
own: it sorts each node's undirected neighbours and skips the one it came
from, and doing that in a call per node on the walk made it about 40%
slower (0.40 against 0.56 ms on a 292-node document).  Every entry point
that takes a radius wants an ``int`` that is not a ``bool`` and not
negative, the same rule as the tree document reader's.

A node's *handle* is the name a caller uses for it.  In a pDFA unfolding it
is the word (tuple of letters) read from the root; in an mNFA unfolding, the
run prefix (tuple of transition ids).  Discs made from an unfolded one by
``end_cone``, ``reroot_disc`` and ``truncate`` keep those words.  A disc
loaded from JSON uses its string ids, and one built with the constructor the
keys of its dicts.  No operation inspects a handle, so all kinds of disc
behave the same.

The dict views ``labels``, ``children``, ``level`` and ``parent`` are keyed
by handles and built on first read.  A word handle passed to ``end_cone``,
``reroot_disc`` or ``children_of`` is found by walking down from the root,
so those stay linear in the depth.  The views of a deep unfolded disc, and
its DOT output, spell out every word: their time and memory are quadratic
in the depth.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from typing import Callable, Hashable, Iterable, Iterator

from .alphabet import InvolutiveAlphabet
from .automata import MNfa, PDfa, Transition, _listed, pdfa_to_mnfa
from .errors import (
    MaterializationLimitError,
    RadiusMismatchError,
    UnknownLetterError,
    UnknownNodeError,
    UnknownStateError,
)

Node = Hashable
Word = tuple[str, ...]

#: Default ceiling on materialized nodes/words, to keep accidental huge radii
#: from exhausting memory.
DEFAULT_MAX_NODES = 2**20


def _check_radius(radius: int) -> None:
    """Raise unless ``radius`` is an ``int``, not a ``bool``, and not negative."""
    if not isinstance(radius, int) or isinstance(radius, bool):
        raise TypeError(f"radius must be an int, not {type(radius).__name__}")
    if radius < 0:
        raise ValueError("radius must be non-negative")


def _walk(
    start, out: Callable, radius: int = sys.maxsize, max_nodes: int = sys.maxsize
) -> tuple[list, list[int], list, list[int], list[int]]:
    """One breadth-first walk from ``start``, level by level, that lists each
    node's children in child order.  ``out(v, k)`` gives the ``(letter,
    child)`` pairs of node ``v``, which lies ``k`` steps from ``start``, in
    child order.  The walk does not expand the nodes ``radius`` steps from
    ``start``, raises ``MaterializationLimitError`` once it holds more than
    ``max_nodes`` nodes, and ends when a level adds no node; left out, each
    sets no bound.  It builds every disc but a loaded one: the unfoldings pass a
    radius and a budget, ``end_cone`` and ``reroot_disc`` a radius, and the
    constructor neither, so that it sees a node deeper than its radius.

    Returns the nodes in walk order and, for each by its place in that
    order, its parent's place (-1 at the start), the letter on the edge
    from its parent (None at the start), its level and its first child's
    place; the last list has one more entry, the number of nodes.
    """
    order, parent, letter, level, off = [start], [-1], [None], [0], []
    for k in range(radius):  # expand the nodes k steps out
        end = len(order)
        if len(off) == end:  # no node is left to expand
            break
        for i in range(len(off), end):
            off.append(len(order))
            for a, c in out(order[i], k):
                order.append(c)
                parent.append(i)
                letter.append(a)
            if len(order) > max_nodes:
                raise MaterializationLimitError(f"unfolding would exceed {max_nodes} nodes")
        level += [k + 1] * (len(order) - end)
    n = len(order)
    off += [n] * (n + 1 - len(off))
    return order, parent, letter, level, off


class DiscTree:
    """A finite rooted involutive tree of bounded radius.

    Stored as parent-to-child edges; the inverse edges of the involutive
    closure are derived on demand.  ``radius`` is the validity bound of the
    disc and may exceed the actual height.  The constructor takes the
    ``labels`` and ``children`` dicts keyed by node handles, and each
    ``children`` tuple gives that node's child order.  It reads them once,
    in one breadth-first walk from the root: its views are built from its
    own lists, as for every other disc, so a leaf listed with ``()`` and
    one left out give equal discs.  It raises ``ValueError`` for a letter
    outside ``alphabet``, a node with two parents, a child or a ``children``
    key that is not labeled, a labeled node the walk does not reach, and a
    node deeper than ``radius``.
    """

    __slots__ = (
        "radius",
        "root",
        "alphabet",
        # Node number -> parent number (-1 at the root), letter on the edge
        # from the parent (None at the root), label and level.
        "_parent",
        "_letter",
        "_label",
        "_level",
        # The children of node i, in child order, are the numbers
        # range(_off[i], _off[i + 1]); _off[n] == n.
        "_off",
        # Handles come from one of three places: the list ``_names``; for an
        # unfolded disc, the step on each node's edge (``_steps``); or the
        # nodes ``_src_ids`` of the unfolded disc ``_src``.  ``_names`` also
        # caches the words of the other two.  ``_ids``, built by ``_find``
        # on first use, maps a handle to its number, or for a ``_src`` disc, a
        # source number to its own.
        "_names",
        "_steps",
        "_src",
        "_src_ids",
        "_ids",
        "_labels",
        "_children",
        "_levels",
        "_parents",
    )

    def __init__(
        self,
        radius: int,
        root: Node,
        labels: dict[Node, str],
        children: dict[Node, tuple[tuple[str, Node], ...]],
        alphabet: InvolutiveAlphabet,
    ):
        _check_radius(radius)
        if root not in labels:
            raise ValueError("root must be a labeled node")
        letters, seen = alphabet.letters, {root}

        def out(v: Node, _) -> tuple[tuple[str, Node], ...]:
            kids = children.get(v, ())
            for a, c in kids:
                if a not in letters:
                    raise ValueError(f"letter {a!r} is not in the alphabet")
                if c in seen:
                    raise ValueError(f"node {c!r} has two parents")
                if c not in labels:
                    raise ValueError(f"child node {c!r} is not labeled")
                seen.add(c)
            return kids

        order, parent, letter, level, off = _walk(root, out)
        if not children.keys() <= labels.keys():
            v = next(v for v in children if v not in labels)
            raise ValueError(f"parent node {v!r} is not labeled")
        if len(order) != len(labels):
            raise ValueError("some labeled nodes are not reachable from the root")
        if level[-1] > radius:
            raise ValueError("node level exceeds the declared radius")
        self._set(radius, root, alphabet, parent, letter, [labels[v] for v in order], level, off, names=order)

    def _set(
        self, radius, root, alphabet, parent, letter, label, level, off,
        *, names=None, steps=None, src=None, src_ids=None,
    ) -> None:
        self.radius = radius
        self.root = root
        self.alphabet = alphabet
        self._parent, self._letter, self._label, self._level = parent, letter, label, level
        self._off = off
        self._names, self._steps, self._src, self._src_ids = names, steps, src, src_ids
        self._ids = self._labels = self._children = self._levels = self._parents = None

    @classmethod
    def _from_arrays(cls, *args, **handles) -> DiscTree:
        t = cls.__new__(cls)
        t._set(*args, **handles)
        return t

    def _derived(self, radius: int, root: Node, start: int, out: Callable) -> DiscTree:
        """The disc of radius ``radius`` that one breadth-first walk over
        this disc's nodes builds from node ``start``, whose handle is
        ``root``; ``out(u, k)`` gives the ``(letter, child)`` pairs of node
        ``u``, which lies ``k < radius`` steps from ``start``, in child
        order.  The nodes keep their handles and labels."""
        order, parent, letter, level, off = _walk(start, out, radius)
        args = (radius, root, self.alphabet, parent, letter, [self._label[u] for u in order], level, off)
        if self._src is not None:
            return DiscTree._from_arrays(*args, src=self._src, src_ids=[self._src_ids[u] for u in order])
        if self._steps is not None:
            return DiscTree._from_arrays(*args, src=self, src_ids=order)
        return DiscTree._from_arrays(*args, names=[self._names[u] for u in order])

    def _out(self, u: int) -> list[tuple[str, int]]:
        """``(letter, child)`` for each child of node ``u``, in child order."""
        letter = self._letter
        return [(letter[c], c) for c in range(self._off[u], self._off[u + 1])]

    def _handles(self) -> list[Node]:
        """Every node's handle, by number; words are built on first use."""
        if self._names is None:
            if self._src is not None:
                words = self._src._handles()
                self._names = [words[k] for k in self._src_ids]
            else:  # each word extends its parent's by one step
                parent, steps = self._parent, self._steps
                words = [()]
                for c in range(1, len(parent)):
                    words.append(words[parent[c]] + (steps[c],))
                self._names = words
        return self._names

    def _handle(self, i: int) -> Node:
        """The handle of node ``i``, without building the others."""
        if self._names is not None:
            return self._names[i]
        if self._src is not None:
            return self._src._handle(self._src_ids[i])
        path = []  # the steps from node i up to the root
        while i > 0:
            path.append(self._steps[i])
            i = self._parent[i]
        return tuple(reversed(path))

    def _find(self, v: Node) -> int:
        """The number of the node whose handle is ``v``."""
        if self._steps is not None:  # a word: walk down from the root
            i = 0
            if type(v) is tuple:
                steps, off = self._steps, self._off
                for s in v:
                    i = next((c for c in range(off[i], off[i + 1]) if steps[c] == s), -1)
                    if i < 0:
                        break
                else:
                    return i
        elif self._src is not None:
            if self._ids is None:
                self._ids = {k: i for i, k in enumerate(self._src_ids)}
            i = self._ids.get(self._src._find(v), -1)
            if i >= 0:
                return i
        else:
            if self._ids is None:
                self._ids = {v: i for i, v in enumerate(self._names)}
            if v in self._ids:
                return self._ids[v]
        raise UnknownNodeError(f"node {v!r} is not in the tree")

    @property
    def labels(self) -> dict[Node, str]:
        if self._labels is None:
            self._labels = dict(zip(self._handles(), self._label))
        return self._labels

    @property
    def children(self) -> dict[Node, tuple[tuple[str, Node], ...]]:
        if self._children is None:
            h, letter, off = self._handles(), self._letter, self._off
            self._children = {
                h[i]: tuple((letter[c], h[c]) for c in range(off[i], off[i + 1]))
                for i in range(len(h))
                if off[i] < off[i + 1]
            }
        return self._children

    @property
    def level(self) -> dict[Node, int]:
        if self._levels is None:
            self._levels = dict(zip(self._handles(), self._level))
        return self._levels

    @property
    def parent(self) -> dict[Node, tuple[Node, str]]:
        if self._parents is None:
            h, parent, letter = self._handles(), self._parent, self._letter
            self._parents = {h[c]: (h[parent[c]], letter[c]) for c in range(1, len(h))}
        return self._parents

    @property
    def nodes(self) -> Iterable[Node]:
        return self.labels.keys()

    def __len__(self) -> int:
        return len(self._label)

    def height(self) -> int:
        return self._level[-1]

    def children_of(self, v: Node) -> tuple[tuple[str, Node], ...]:
        return tuple((a, self._handle(c)) for a, c in self._out(self._find(v)))

    def down_edges(self) -> Iterator[tuple[Node, str, Node]]:
        """One edge per involutive pair, oriented from parent to child."""
        h, parent, letter = self._handles(), self._parent, self._letter
        for c in range(1, len(parent)):
            yield (h[parent[c]], letter[c], h[c])

    def sorted_nodes(self) -> list[Node]:
        """Nodes in the order of one breadth-first walk from the root that
        lists each node's children in child order: the handles in
        node-number order."""
        return list(self._handles())

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
        return f"DiscTree(radius={self.radius}, nodes={len(self)})"


def unfold_mnfa(m: MNfa, p: str, radius: int, max_nodes: int = DEFAULT_MAX_NODES) -> DiscTree:
    """Disc of the run tree of ``m`` started in ``p``.

    Nodes are runs of length at most ``radius``; a node's handle is its run
    as a tuple of transition ids, and its label the state the run ends in.
    A node's children come in transition-id order.  The walk meets each
    node as the last transition of its run.  A state's transitions are
    checked when it is first expanded: a transition id used twice raises
    ``ValueError``, and a letter outside the alphabet
    ``UnknownLetterError``.  So a disc that never expands a state with such
    a transition is returned, where ``unfold_pdfa`` raises at every radius.
    """
    if p not in m.states:
        raise UnknownStateError(f"state {p!r} is not in the automaton")
    _check_radius(radius)
    letters = m.alphabet.letters
    kids: dict[str, list[tuple[str, Transition]]] = {}  # by state, from its first expanded node

    def out(run: Transition, _) -> list[tuple[str, Transition]]:
        s = run.dst
        if s not in kids:
            ts = m.transitions_from(s)  # in transition-id order
            for t, u in zip(ts, ts[1:]):
                if t.tid == u.tid:  # two children would share one run
                    raise ValueError(f"transition id {t.tid} is used twice from state {s!r}")
            for t in ts:
                if t.label not in letters:
                    raise UnknownLetterError(f"letter {t.label!r} is not in the alphabet")
            kids[s] = [(t.label, t) for t in ts]
        return kids[s]

    empty = Transition(None, None, None, p)  # stands for the empty run, which ends in p
    runs, parent, letter, level, off = _walk(empty, out, radius, max_nodes)
    label, steps = [run.dst for run in runs], [run.tid for run in runs]
    return DiscTree._from_arrays(radius, (), m.alphabet, parent, letter, label, level, off, steps=steps)


def unfold_pdfa(d: PDfa, p: str, radius: int, max_nodes: int = DEFAULT_MAX_NODES) -> DiscTree:
    """Disc of the tree generated from state ``p`` of a pDFA.

    Nodes are the words of length at most ``radius`` readable from ``p``; a
    node's handle is its word, the parent of ``wa`` is ``w`` and labels
    record the state reached.  A node's children come in letter order.  The
    walk reads the pDFA's index, and the step of each node is its letter.
    Every node in one state has the same children, so each state's child
    list is built once, at its first expanded node, and kept in a list
    indexed by state id.  A state that only transitions name raises
    ``UnknownStateError`` there, at its first expansion, as ``_listed``
    names it: a disc that only reaches it as a leaf is returned.  A letter
    outside the alphabet has no column in the index, so it raises
    ``UnknownLetterError`` when the index is built, at every radius, also
    from a state that never reaches it; ``unfold_mnfa`` waits instead.
    """
    if p not in d.states:
        raise UnknownStateError(f"state {p!r} is not in the automaton")
    _check_radius(radius)
    ix = d._indexed()
    columns = list(zip(ix.letters, ix.succ))
    kids: list[list[tuple[str, int]] | None] = [None] * len(ix.names)

    def out(s: int, _) -> list[tuple[str, int]]:
        if (ks := kids[s]) is None:
            _listed(d, (s,))
            ks = kids[s] = [(x, q) for x, col in columns if (q := col[s]) >= 0]
        return ks

    state, parent, letter, level, off = _walk(ix.ids[p], out, radius, max_nodes)
    label = list(map(ix.names.__getitem__, state))
    return DiscTree._from_arrays(radius, (), d.alphabet, parent, letter, label, level, off, steps=letter)


def _canonical_forms(trees: list[DiscTree]) -> list[list[int]]:
    # A node's form is the sorted tuple of (letter, child form) pairs,
    # interned in a table shared across the given trees, so equal ids mean
    # isomorphic (unlabeled) subtrees even across trees.  Reversed node
    # order lists every child before its parent.
    table: dict[tuple, int] = {}
    result = []
    for t in trees:
        off, letter = t._off, t._letter
        forms = [0] * len(t)
        for v in reversed(range(len(forms))):
            a, b = off[v], off[v + 1]
            key = tuple(sorted(zip(letter[a:b], forms[a:b]))) if a < b else ()
            forms[v] = table.setdefault(key, len(table))
        result.append(forms)
    return result


def _labeled_iso_exists(x: DiscTree, y: DiscTree, fx: list[int], fy: list[int]) -> bool:
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
    work: tuple | None = (((0,), (0,)), None)
    j = 0
    xo, xa, yo, ya = x._off, x._letter, y._off, y._letter
    while work is not None:
        (xs, ys), rest = work
        if j + 1 < len(ys):
            choices.append((xs, ys, j + 1, rest, len(trail)))
        v, w = xs[0], ys[j]
        lv, lw = x._label[v], y._label[w]
        if beta.get(lv, lw) == lw and beta_inv.get(lw, lv) == lv:
            if lv not in beta:
                beta[lv] = lw
                beta_inv[lw] = lv
                trail.append(lv)
            if len(xs) > 1:
                rest = ((xs[1:], ys[:j] + ys[j + 1 :]), rest)
            groups: dict[tuple[str, int], tuple[list[int], list[int]]] = {}
            for c in range(xo[v], xo[v + 1]):
                groups.setdefault((xa[c], fx[c]), ([], []))[0].append(c)
            for c in range(yo[w], yo[w + 1]):
                groups[(ya[c], fy[c])][1].append(c)
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
    if fx[0] != fy[0]:
        return False
    if not use_labels:
        return True
    return _labeled_iso_exists(x, y, fx, fy)


def end_cone(t: DiscTree, v: Node) -> DiscTree:
    """The descendant subtree of ``v``, re-rooted at ``v``.

    Its radius is what remains of the disc below ``v``; in a tree, ``v`` is
    the unique frontier point of its end-cone.  One walk down from ``v``
    builds it.
    """
    i = t._find(v)
    return t._derived(t.radius - t._level[i], v, i, lambda u, _: t._out(u))


def reroot_disc(t: DiscTree, v: Node) -> DiscTree:
    """The same involutive graph with the root moved to ``v``.

    A disc of radius ``r`` only determines the re-rooted tree out to distance
    ``r - level(v)`` from ``v``, so the result is truncated to that radius.
    A node's children are its old parent, when that is farther from ``v``,
    then its old children that are.  One walk out from ``v`` builds it.
    """
    i = t._find(v)
    top = t._level[i]
    parent, letter, level, inv = t._parent, t._letter, t._level, t.alphabet.inv
    below = -1  # the node of v's path to the old root that the walk expanded last

    def out(u: int, k: int) -> list[tuple[str, int]]:
        nonlocal below
        # u lies k steps from v, so it lies on v's path to the old root just
        # when it is k levels above v; otherwise the walk came from its old
        # parent.  On the path, the walk came from the node it expanded last.
        if level[u] + k > top:
            return t._out(u)
        up = [(inv(letter[u]), parent[u])] if u else []  # node 0 is the old root
        kids, below = up + [(a, c) for a, c in t._out(u) if c != below], u
        return kids

    return t._derived(t.radius - top, v, i, out)


def truncate(t: DiscTree, radius: int) -> DiscTree:
    """Restriction of the disc to the nodes of level at most ``radius``.

    Those are the first nodes in number order, and they keep their numbers,
    so it walks nothing: it cuts every list by node number to its head, the
    handles' too, and closes the first-child list at the new node count.
    """
    _check_radius(radius)
    if radius > t.radius:
        raise RadiusMismatchError(f"cannot extend a disc of radius {t.radius} to {radius}")
    inner = bisect_right(t._level, radius - 1)  # the nodes that keep their children
    n = t._off[inner]  # the nodes of level at most ``radius``
    lists = (t._parent[:n], t._letter[:n], t._label[:n], t._level[:n], t._off[:inner] + [n] * (n + 1 - inner))
    handles = {k: h[:n] for k, h in (("names", t._names), ("steps", t._steps), ("src_ids", t._src_ids)) if h is not None}
    return DiscTree._from_arrays(radius, t.root, t.alphabet, *lists, src=t._src, **handles)


def nondeterministic_vertex(t: DiscTree) -> Node | None:
    """A node whose involutive closure has two equal-labeled outgoing edges.

    Of several such nodes, the first in ``sorted_nodes`` order: the one with
    the smallest number.
    """
    parent, letter = t._parent, t._letter
    back = [None, *map(t.alphabet.inv, letter[1:])]  # the letter from each node to its parent
    seen: set[tuple[int, str]] = set()
    bad = len(parent)
    for c in range(1, len(parent)):
        p, a = parent[c], letter[c]
        if (p, a) in seen or a == back[p]:
            bad = min(bad, p)
        seen.add((p, a))
    return t._handle(bad) if bad < len(parent) else None


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _word_text(v: Node) -> str:
    if isinstance(v, tuple):
        return ",".join(str(part) for part in v) if v else "eps"
    return str(v) if str(v) else "eps"


def export_dot(obj: DiscTree | MNfa | PDfa) -> str:
    """Render a disc or an automaton as DOT text.

    For trees, one edge is drawn per involutive pair (parent to child); for
    automata every transition is drawn, and a pDFA is drawn as its mNFA
    view.  Output ordering is fully deterministic, so repeated runs are
    byte-identical.
    """
    if isinstance(obj, PDfa):
        obj = pdfa_to_mnfa(obj)
    lines = ["digraph {"]
    if isinstance(obj, DiscTree):
        for i, (v, label) in enumerate(zip(obj._handles(), obj._label)):
            text = f"{_word_text(v)} : {label}"
            lines.append(f"  n{i} [label={_dot_quote(text)}];")
        parent, letter = obj._parent, obj._letter
        for c in range(1, len(parent)):
            lines.append(f"  n{parent[c]} -> n{c} [label={_dot_quote(letter[c])}];")
    elif isinstance(obj, MNfa):
        for s in sorted(obj.states):
            lines.append(f"  {_dot_quote(s)};")
        for t in sorted(obj.transitions, key=lambda t: (t.src, t.label, t.dst, t.tid)):
            lines.append(f"  {_dot_quote(t.src)} -> {_dot_quote(t.dst)} [label={_dot_quote(t.label)}];")
    else:
        raise TypeError(f"cannot export {type(obj).__name__} as DOT")
    lines.append("}")
    return "\n".join(lines) + "\n"
