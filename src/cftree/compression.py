"""Compressing finite involutive trees into minimal pDFAs, and state quotients.

A finite deterministic involutive tree (a Munn tree, say) is a degenerate
generated tree; grouping its nodes by rooted isomorphism of their descendant
subtrees yields the states of a pDFA whose unfolding reproduces the tree.
A state quotient is one state-equivalence refinement (``_classes``) on the
side the pDFA keeps for all its states: its index, their predecessor form
and three-round keys, as ``_predecessors`` returns it.
"""

from __future__ import annotations

from .automata import PDfa, _blank_index, _classes, _predecessors, _restrict
from .errors import NondeterministicTreeError
from .unfolding import DiscTree, _canonical_forms, nondeterministic_vertex


def compress_finite_tree(t: DiscTree) -> tuple[PDfa, str]:
    """Encode a complete finite deterministic involutive tree as a pDFA.

    States are the rooted-isomorphism classes of descendant subtrees; each
    class contributes one transition per outgoing letter of its first
    representative in breadth-first order.  The caller asserts that the tree
    is complete: a truncated disc would misclassify its boundary nodes as
    leaves.  The result is reduced and has no two equivalent states, and it
    holds only its index, filled straight from the disc's lists.
    """
    bad = nondeterministic_vertex(t)
    if bad is not None:
        raise NondeterministicTreeError(
            f"involutive closure is not deterministic at node {bad!r}"
        )
    (forms,) = _canonical_forms([t])
    # Node numbers run in ``sorted_nodes`` order: state ``c<i>`` is the
    # i-th form to appear, and its row is read off that form's first node.
    state = {f: i for i, f in enumerate(dict.fromkeys(forms))}
    first = dict(zip(reversed(forms), range(len(forms) - 1, -1, -1)))
    ix, by_letter = _blank_index([f"c{i}" for i in range(len(state))], t.alphabet)
    off, letter, masks = t._off, t._letter, ix.masks
    for f, s in state.items():
        v = first[f]
        for c in range(off[v], off[v + 1]):
            column, bit = by_letter[letter[c]]
            column[s] = state[forms[c]]
            masks[s] |= bit
    return PDfa._from_index(t.alphabet, ix), "c0"


def quotient(d: PDfa) -> tuple[PDfa, dict[str, str]]:
    """Quotient a pDFA by language equality of its states.

    Returns the quotient and the map from each state to the class it
    collapses into.  Every state's language is preserved, no two distinct
    result states are equivalent, and reducedness survives the quotient.
    Class names are the smallest member state name.  The quotient's index is
    built from the blocks of ``_classes`` on the side that ``_predecessors``
    keeps for every state of the automaton's own index, with the heads taken
    in the side's name order: a class reads what its smallest member reads,
    into the classes of that member's successors.  A state that only
    transitions name raises ``UnknownStateError``, reachable or not; of
    several, the one with the smallest name is named, as everywhere.
    """
    ix, order, _, _ = side = _predecessors(d, d._indexed())
    block, _, _ = _classes([side])
    rank: dict[int, int] = {}
    heads: list[int] = []  # the smallest member of each class, by name
    for s in order:
        if block[s] not in rank:
            rank[block[s]] = len(heads)
            heads.append(s)
    cls = [rank[b] for b in block[: len(ix.names)]] + [-1]  # cls[-1] == -1 keeps "no successor"
    out = _restrict(ix, heads, cls)
    return PDfa._from_index(d.alphabet, out), dict(zip(ix.names, map(out.names.__getitem__, cls)))


def minimize(d: PDfa) -> PDfa:
    """Quotient a pDFA by language equality of its states (see ``quotient``)."""
    return quotient(d)[0]
