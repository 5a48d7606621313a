"""Moving the root of a generated tree across an edge, and along a word.

A single step on an mNFA duplicates the old root state and the target of the
crossed transition into fresh states; the tree generated from the fresh
target is the old tree with its root moved across that edge.  Along a word,
a pDFA is re-rooted in one pass on its integer index, never its ``delta``
map: one walk finds the states the copies of the path reach, and one
restriction of the index builds those states and one fresh copy per node
of the path, in O((|w| + r)·|Σ|) for the r states kept rather than a step,
a trim and a re-condensing per letter.
"""

from __future__ import annotations

from .automata import MNfa, PDfa, Transition, _listed, _restrict, _walk, require_reduced, trim
from .errors import UnknownStateError, WordNotInLanguageError
from .unfolding import Word


def _fresh(name: str, taken: frozenset[str] | set[str]) -> str:
    """``name`` with ``+`` appended until it is not in ``taken``.  The names
    asked for here end in ``@p{i}`` or ``@q{i}``, each suffix once, so the
    fresh names never meet one another."""
    while name in taken:
        name += "+"
    return name


def reroot_step(m: MNfa, root: str, sigma0: int) -> tuple[MNfa, str]:
    """Move the root of the tree generated from ``root`` across transition ``sigma0``.

    Adds a copy ``p'`` of ``root`` without the crossed transition and a copy
    ``q'`` of its target with an extra inverse transition back to ``p'``; the
    tree generated from ``q'`` is the old tree re-rooted across ``sigma0``.
    The copies are named ``{root}@p0`` and ``{target}@q0``, as the first step
    of :func:`reroot_along_word` names them, with ``+`` appended until no
    state of ``m``, listed or only named by a transition, has the name.
    Returns the new automaton and ``q'``.
    """
    crossed = next((t for t in m.transitions_from(root) if t.tid == sigma0), None)
    if crossed is None:
        raise UnknownStateError(f"no transition {sigma0} starts at the root {root!r}")
    q0 = crossed.dst
    named = {*m.states, *(x for t in m.transitions for x in (t.src, t.dst))}
    p_new = _fresh(f"{root}@p0", named)
    q_new = _fresh(f"{q0}@q0", named)

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

    return MNfa(m.states | {p_new, q_new}, m.alphabet, m.transitions + tuple(extra)), q_new


def reroot_along_word(d: PDfa, root: str, w: Word) -> tuple[PDfa, str]:
    """Re-root the tree generated from ``root`` at the node named by ``w``.

    Requires a reduced automaton and ``w`` in the language of ``root``.  Node
    ``i`` of the path ``s_0 = root, .., s_k`` that ``w`` reads becomes a fresh
    state ``c_i`` with the out-edges of ``s_i`` except ``w[i]`` (all of them
    for ``i = k``), plus ``w[i-1]^-1`` back to ``c_{i-1}``.  The result holds
    the states of ``d`` that those out-edges reach, in id order, and then
    ``c_0, .., c_k``: the trim of the re-rooted automaton from the new root
    ``c_k``, which is again reduced.  The copies are named ``{root}@p0``,
    ``{s_i}@q{i-1}@p{i}`` and ``{s_k}@q{k-1}``, with ``+`` appended until
    fresh.  Runs in O((|w| + r)·|Σ|) for the ``r`` states kept, plus one
    O(|d|) list fill, the restriction's renaming.  A letter outside the
    alphabet makes ``w`` unreadable.  A state reachable from ``root`` that
    only transitions name raises ``UnknownStateError`` once ``w`` is read,
    as ``_listed`` names it, also when only its copy is reachable from the
    new root; for the empty word it raises in ``trim``.
    """
    require_reduced(d, "input")
    if root not in d.states:
        raise UnknownStateError(f"state {root!r} is not in the automaton")
    ix = d._indexed()
    # ``path`` holds s_0, .., s_i; ``here`` names path node i before its
    # ``@p{i}`` suffix, and after the loop it is c_k.
    path, copies, here = [ix.ids[root]], [], root
    for i, a in enumerate(w):
        s = ix.succ[ix.letters.index(a)][path[-1]] if a in ix.letters else -1
        if s < 0:
            raise WordNotInLanguageError(f"word {','.join(w) or 'eps'} is not readable from {root!r}")
        path.append(s)
        copies.append(_fresh(f"{here}@p{i}", d.states))
        here = _fresh(f"{ix.names[s]}@q{i}", d.states)
    if not w:
        return trim(d, root), root
    copies.append(here)
    cut = list(map(ix.letters.index, w))
    # The states kept are those the out-edges of the copies reach.  With
    # the path, they are the states ``root`` reaches.
    ends = (col[s] for s, a in zip(path, cut + [-1]) for b, col in enumerate(ix.succ) if b != a)
    kept = sorted(_walk(ix, *ends))
    _listed(d, path + kept)
    # Copy c_i is row ``len(kept) + i``, its path state's row: edit its
    # w[i] edge away and add the w[i]^-1 edge of c_{i+1} back to it.
    r = _restrict(ix, kept + path, copies=copies)
    for i, a in enumerate(cut, len(kept)):
        b = ix.inverse[a]
        r.succ[a][i] = -1
        r.masks[i] ^= 1 << a
        r.succ[b][i + 1] = i
        r.masks[i + 1] |= 1 << b
    return PDfa._from_index(d.alphabet, r), here
