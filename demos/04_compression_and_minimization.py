"""Finite involutive trees compress into minimal automata and unfold back.

Run: python3 demos/04_compression_and_minimization.py
"""

from cftree import (
    DiscTree,
    PDfa,
    compress_finite_tree,
    disc_equal_rooted,
    involutive_closure,
    language_classes,
    minimize,
    unfold_pdfa,
)

al = involutive_closure(["a", "b"])

# The finite tree traced by the word "ab": a path of two edges.  This is the
# kind of tree a word in a free inverse monoid traces out.
word_tree = DiscTree(
    radius=2,
    root="e",
    labels={"e": "t", "x": "t", "xy": "t"},
    children={"e": (("a", "x"),), "x": (("b", "xy"),)},
    alphabet=al,
)
d, root = compress_finite_tree(word_tree)
print(f"path a.b compresses to {len(d.states)} states, {len(d.delta)} transitions")
print("unfolds back to the same tree:",
      disc_equal_rooted(unfold_pdfa(d, root, 2), word_tree))

# A complete binary tree of depth 3: all depth-k subtrees look alike, so one
# state per level suffices.
labels, children = {"": "t"}, {}
frontier = [""]
for _ in range(3):
    nxt = []
    for w in frontier:
        kids = []
        for x in ("a", "b"):
            labels[w + x] = "t"
            kids.append((x, w + x))
            nxt.append(w + x)
        children[w] = tuple(kids)
    frontier = nxt
full = DiscTree(3, "", labels, children, al)
d, root = compress_finite_tree(full)
print(f"\ncomplete binary tree of depth 3: {len(full)} nodes -> {len(d.states)} states")
(classes,) = language_classes(d)
print("compression is minimal (no two states equivalent):",
      len(set(classes.values())) == len(d.states))

# Quotienting a pDFA with redundant states merges them.
redundant = PDfa(
    {"s", "t", "u"},
    involutive_closure(["a"]),
    {("s", "a"): "t", ("t", "a"): "t", ("u", "a"): "u"},
)
m = minimize(redundant)
print(f"\nredundant loop states: {len(redundant.states)} -> {len(m.states)} after minimize")
