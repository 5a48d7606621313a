"""Compressing finite involutive trees into minimal pDFAs, and state quotients.

A finite deterministic involutive tree (a Munn tree, say) is a degenerate
generated tree; grouping its nodes by rooted isomorphism of their descendant
subtrees yields the states of a pDFA whose unfolding reproduces the tree.
"""

from __future__ import annotations

from .automata import PDfa, _restrict
from .errors import NondeterministicTreeError, UnknownStateError
from .isomorphism import _classes
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
    # Node numbers run in ``sorted_nodes`` order: name each form by its first
    # appearance, and take its first node as its representative.
    state = {f: f"c{i}" for i, f in enumerate(dict.fromkeys(forms))}
    rep = dict(zip(reversed(forms), range(len(forms) - 1, -1, -1)))
    off, letter = t._off, t._letter
    delta = {(state[f], letter[c]): state[forms[c]] for f, v in rep.items() for c in range(off[v], off[v + 1])}
    return PDfa(state.values(), t.alphabet, delta), state[forms[0]]


def quotient(d: PDfa) -> tuple[PDfa, dict[str, str]]:
    """Quotient a pDFA by language equality of its states.

    Returns the quotient and the map from each state to the class it
    collapses into.  Every state's language is preserved, no two distinct
    result states are equivalent, and reducedness survives the quotient.
    Class names are the smallest member state name.  The quotient's index is
    built from the blocks of ``_classes`` on the automaton's own index, with
    the heads taken in the cached name order of its predecessor form: a
    class reads what its smallest member reads, into the classes of that
    member's successors.
    """
    ix = d._indexed()
    names = ix.names
    if len(names) > len(d.states):  # ids past those are states only transitions name
        raise UnknownStateError(f"state {names[len(d.states)]!r} is not in the automaton")
    block, _, ((order, _),) = _classes([(d, ix, range(len(names)))])
    rank: dict[int, int] = {}
    heads: list[int] = []  # the smallest member of each class, by name
    for s in order:
        if block[s] not in rank:
            rank[block[s]] = len(heads)
            heads.append(s)
    cls = [rank[b] for b in block[: len(names)]] + [-1]  # cls[-1] == -1 keeps "no successor"
    out = _restrict(ix, heads, cls)
    return PDfa._from_index(d.alphabet, out), dict(zip(names, map(out.names.__getitem__, cls)))


def minimize(d: PDfa) -> PDfa:
    """Quotient a pDFA by language equality of its states (see ``quotient``)."""
    return quotient(d)[0]
