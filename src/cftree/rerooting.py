"""Moving the root of a generated tree across an edge, and along a word.

A single step on an mNFA duplicates the old root state and the target of the
crossed transition into fresh states; the tree generated from the fresh
target is the old tree with its root moved across that edge.  Along a word,
a pDFA is re-rooted in one pass on its integer index, never its ``delta``
map: one fresh copy per node of the path, appended as a new state id, then
a single trim, in O(|w|·|Σ| + |d|) rather than a step, a trim and a
re-condensing per letter.
"""

from __future__ import annotations

from .automata import MNfa, PDfa, Transition, _reach, _restrict, require_reduced, trim
from .errors import UnknownStateError, WordNotInLanguageError
from .unfolding import Word


def _fresh(name: str, taken: set[str]) -> str:
    """``name`` with ``+`` appended until it is not in ``taken``; adds it there."""
    while name in taken:
        name += "+"
    taken.add(name)
    return name


def reroot_step(m: MNfa, root: str, sigma0: int) -> tuple[MNfa, str]:
    """Move the root of the tree generated from ``root`` across transition ``sigma0``.

    Adds a copy ``p'`` of ``root`` without the crossed transition and a copy
    ``q'`` of its target with an extra inverse transition back to ``p'``; the
    tree generated from ``q'`` is the old tree re-rooted across ``sigma0``.
    The copies are named ``{root}@p0`` and ``{target}@q0``, as the first step
    of :func:`reroot_along_word` names them, with ``+`` appended until fresh.
    Returns the new automaton and ``q'``.
    """
    crossed = next((t for t in m.transitions_from(root) if t.tid == sigma0), None)
    if crossed is None:
        raise UnknownStateError(f"no transition {sigma0} starts at the root {root!r}")
    q0 = crossed.dst
    taken = set(m.states)
    p_new = _fresh(f"{root}@p0", taken)
    q_new = _fresh(f"{q0}@q0", taken)

    tid = m.max_tid() + 1
    extra: list[Transition] = []
    for t in m.transitions_from(root):
        if t.tid == sigma0:
            continue
        extra.append(Transition(tid, p_new, t.label, t.dst))
        tid += 1
    extra.append(Transition(tid, q_new, m.alphabet.inv(crossed.label), p_new))
    tid += 1
    for t in m.transitions_from(q0):
        extra.append(Transition(tid, q_new, t.label, t.dst))
        tid += 1

    return MNfa(taken, m.alphabet, m.transitions + tuple(extra)), q_new


def reroot_along_word(d: PDfa, root: str, w: Word) -> tuple[PDfa, str]:
    """Re-root the tree generated from ``root`` at the node named by ``w``.

    Requires a reduced automaton and ``w`` in the language of ``root``.  Node
    ``i`` of the path ``s_0 = root, .., s_k`` that ``w`` reads becomes a fresh
    state ``c_i`` with the out-edges of ``s_i`` except ``w[i]`` (all of them
    for ``i = k``), plus ``w[i-1]^-1`` back to ``c_{i-1}``; the result is
    trimmed once from the new root ``c_k`` and is again reduced.  The copies
    are named ``{root}@p0``, ``{s_i}@q{i-1}@p{i}`` and ``{s_k}@q{k-1}``, with
    ``+`` appended until fresh.  Runs in O(|w|·|Σ| + |d|).  A letter outside
    the alphabet makes ``w`` unreadable; a state reachable from ``root`` that
    only transitions name raises ``UnknownStateError``, as in ``trim``.
    """
    require_reduced(d, "input")
    if root not in d.states:
        raise UnknownStateError(f"state {root!r} is not in the automaton")
    ix = d._indexed()
    taken = set(d.states)
    # ``path`` holds s_0, .., s_i; ``here`` names path node i before its
    # ``@p{i}`` suffix, and after the loop it is c_k.
    path, copies, here = [ix.ids[root]], [], root
    for i, a in enumerate(w):
        s = ix.succ[ix.letters.index(a)][path[-1]] if a in ix.letters else -1
        if s < 0:
            raise WordNotInLanguageError(f"word {','.join(w) or 'eps'} is not readable from {root!r}")
        path.append(s)
        copies.append(_fresh(f"{here}@p{i}", taken))
        here = _fresh(f"{ix.names[s]}@q{i}", taken)
    if not w:
        return trim(d, root), root
    copies.append(here)
    # The restriction to the states reachable from ``root`` holds fresh
    # lists, so copy c_i gets id m + i by appending to them.
    r = _restrict(ix, sorted(_reach(d, root)))
    m = len(r.names)
    path = [r.ids[ix.names[s]] for s in path]
    for col in r.succ:
        col += [col[s] for s in path]
    r.masks.extend(r.masks[s] for s in path)
    for i, a in enumerate(map(ix.letters.index, w), m):
        b = ix.inverse[a]
        r.succ[a][i] = -1
        r.masks[i] ^= 1 << a
        r.succ[b][i + 1] = i
        r.masks[i + 1] |= 1 << b
    r.names.extend(copies)
    r.ids.update(zip(copies, range(m, len(r.names))))
    return trim(PDfa._from_index(d.alphabet, r), here), here
