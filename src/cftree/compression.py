"""Compressing finite involutive trees into minimal pDFAs, and state quotients.

A finite deterministic involutive tree (a Munn tree, say) is a degenerate
generated tree; grouping its nodes by rooted isomorphism of their descendant
subtrees yields the states of a pDFA whose unfolding reproduces the tree.
"""

from __future__ import annotations

from .automata import PDfa
from .errors import NondeterministicTreeError
from .isomorphism import language_classes
from .unfolding import DiscTree, _canonical_forms, nondeterministic_vertex


def compress_finite_tree(t: DiscTree) -> tuple[PDfa, str]:
    """Encode a complete finite deterministic involutive tree as a pDFA.

    States are the rooted-isomorphism classes of descendant subtrees; each
    class contributes one transition per outgoing letter of its first
    representative in breadth-first order.  The caller asserts that the tree
    is complete: a truncated disc would misclassify its boundary nodes as
    leaves.  The result is reduced and has no two equivalent states.
    """
    bad = nondeterministic_vertex(t)
    if bad is not None:
        raise NondeterministicTreeError(
            f"involutive closure is not deterministic at node {bad!r}"
        )
    (forms,) = _canonical_forms([t])
    state_of_form: dict[int, str] = {}
    rep_of_form: dict[int, object] = {}
    for v in t.sorted_nodes():
        f = forms[v]
        if f not in state_of_form:
            state_of_form[f] = f"c{len(state_of_form)}"
            rep_of_form[f] = v
    delta: dict[tuple[str, str], str] = {}
    for f, rep in rep_of_form.items():
        for a, c in t.children.get(rep, ()):
            delta[(state_of_form[f], a)] = state_of_form[forms[c]]
    return PDfa(state_of_form.values(), t.alphabet, delta), state_of_form[forms[t.root]]


def quotient(d: PDfa) -> tuple[PDfa, dict[str, str]]:
    """Quotient a pDFA by language equality of its states.

    Returns the quotient and the map from each state to the class it
    collapses into.  Every state's language is preserved, no two distinct
    result states are equivalent, and reducedness survives the quotient.
    Class names are the smallest member state name.
    """
    (cls,) = language_classes(d)
    name: dict[int, str] = {}
    for p in sorted(d.states):
        name.setdefault(cls[p], p)
    rep = {p: name[c] for p, c in cls.items()}
    delta = {(rep[p], a): rep[q] for (p, a), q in d.delta.items()}
    return PDfa(name.values(), d.alphabet, delta), rep


def minimize(d: PDfa) -> PDfa:
    """Quotient a pDFA by language equality of its states (see ``quotient``)."""
    return quotient(d)[0]
