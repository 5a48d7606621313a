"""Rooted isomorphism is language equality, with shortest separating words.

Run: python3 demos/02_rooted_isomorphism.py
"""

from cftree import (
    PDfa,
    involutive_closure,
    iso_rooted,
    language_classes,
    unfold_pdfa,
)

al = involutive_closure(["a", "b"])
d = PDfa({"p", "q"}, al, {("p", "a"): "p", ("p", "b"): "q", ("q", "b"): "q"})

# Two states of one automaton generate isomorphic rooted trees exactly when
# they read the same words.
(classes,) = language_classes(d)
print("equivalent state pairs:",
      sorted((p, q) for p in d.states for q in d.states if classes[p] == classes[q]))

ok, witness = iso_rooted(d, "p", d, "q")
print(f"\np vs q rooted isomorphic? {ok}")
print(f"shortest separating word: {witness} (readable on the {witness.side})")

# A fresh copy with renamed states is indistinguishable.
copy = PDfa(
    {"p2", "q2"}, al, {("p2", "a"): "p2", ("p2", "b"): "q2", ("q2", "b"): "q2"}
)
ok, _ = iso_rooted(d, "p", copy, "p2")
print(f"\np vs renamed copy isomorphic? {ok}")

# The languages witness the difference directly: the nodes of a pDFA's disc
# are the words readable from its root.
lp = set(unfold_pdfa(d, "p", 2).nodes)
lq = set(unfold_pdfa(d, "q", 2).nodes)
print("\nwords of length <= 2 from p but not q:")
for w in sorted(lp - lq):
    print("  ", ",".join(w))

# Two rays over different letters differ on the first step.
x = PDfa({"s"}, involutive_closure(["a"]), {("s", "a"): "s"})
y = PDfa({"t"}, involutive_closure(["b"]), {("t", "b"): "t"})
ok, witness = iso_rooted(x, "s", y, "t")
print(f"\na-ray vs b-ray isomorphic? {ok}, witness {witness}")
