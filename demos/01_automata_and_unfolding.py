"""Build the two flagship automata, validate them, and look at their trees.

Run: python3 demos/01_automata_and_unfolding.py
"""

from cftree import (
    MNfa,
    NotDeterministicError,
    Transition,
    as_pdfa,
    export_dot,
    involutive_closure,
    is_reduced,
    unfold_mnfa,
    unfold_pdfa,
    validate_mnfa,
)

# An involutive alphabet pairs every letter with a formal inverse.
al_a = involutive_closure(["a"])
print("alphabet over {a}:", al_a.sorted_letters())

# The simplest interesting mNFA: one state carrying two parallel a-loops.
# Parallel transitions are legal and meaningful: each loop spawns its own
# child, so the generated tree is the complete binary tree.
binary = MNfa(
    {"p"},
    al_a,
    [Transition(0, "p", "a", "p"), Transition(1, "p", "a", "p")],
)
print("\nvalidation:", "ok" if validate_mnfa(binary).ok else "broken")

disc = unfold_mnfa(binary, "p", 2)
print(f"two-loop automaton unfolded to radius 2: {len(disc)} nodes")
print(export_dot(disc))

# Parallel same-letter transitions are exactly what a pDFA cannot have.
try:
    as_pdfa(binary)
except NotDeterministicError as e:
    t0, t1 = e.pair
    print(f"cannot view as pDFA: transitions {t0.tid} and {t1.tid} clash\n")

# A deterministic two-state automaton: a-loop on p, b to q, b-loop on q.
al_ab = involutive_closure(["a", "b"])
astar_bstar = as_pdfa(
    MNfa(
        {"p", "q"},
        al_ab,
        [
            Transition(0, "p", "a", "p"),
            Transition(1, "p", "b", "q"),
            Transition(2, "q", "b", "q"),
        ],
    )
)
print("deterministic, reduced:", is_reduced(astar_bstar))

tree = unfold_pdfa(astar_bstar, "p", 2)
print("\nnode labels of the radius-2 disc from p:")
for v in tree.sorted_nodes():
    print(f"  {','.join(v) or 'eps':<6} -> {tree.labels[v]}")
