"""Multi-edge NFAs and partial DFAs over involutive alphabets.

An :class:`MNfa` is a finite edge-labeled multigraph: parallel transitions
with identical endpoints and label are distinguished by an integer id.  A
:class:`PDfa` is a partial function ``(state, letter) -> state``, so
determinism holds by representation.  It is held as a map, as an integer
index (one successor column per letter), or both, and each form is derived
from the other on first use: a pDFA built from a map indexes it when a
decision first runs, and one loaded from a document or made by a quotient,
``trim`` or a re-rooting (all three through ``_restrict``) holds only its
index until ``delta``, a read-only view of the map, is read.  Both kinds are
immutable after construction, so the index and the verdicts kept from it
stay true.  ``_sorted_transitions`` lists the transitions in order from
whichever form is held, so writers, ``pdfa_to_mnfa``, ``validate_pdfa`` and
hashing decode nothing.  All checks live in separate functions so a caller
can collect every problem at once instead of failing fast.  Reducedness is
one fact about a pDFA: ``reducedness_violation`` decides it from the
successor columns the first time it is asked and keeps the verdict.  Two
more facts are kept next to the index on first use: its predecessor form
(``_predecessors``: the ids in name order and each id's ``(letter,
source)`` pairs), which state equivalence and the non-rooted search read,
and the states reachable from the last root asked (``_reach``), which
``trim``, re-rooting, ``reachable_states`` and both isomorphism tests read.
An index over a larger merged alphabet keeps neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, or_
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .alphabet import InvolutiveAlphabet, merge_alphabets
from .errors import NotDeterministicError, NotReducedError, UnknownLetterError, UnknownStateError


class Transition(NamedTuple):
    """One transition of an mNFA; ``tid`` tells parallel ones apart.

    Immutable and hashed like the tuple of its fields, but equal only to a
    transition.
    """

    tid: int
    src: str
    label: str
    dst: str

    def triple(self) -> tuple[str, str, str]:
        return (self.src, self.label, self.dst)

    # A plain tuple's reflected comparison would match on the fields, so
    # these answer for every other type instead of returning NotImplemented.
    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


class MNfa:
    """Multi-edge nondeterministic finite automaton."""

    __slots__ = ("states", "alphabet", "transitions", "_by_src")

    def __init__(
        self,
        states: Iterable[str],
        alphabet: InvolutiveAlphabet,
        transitions: Iterable[Transition],
    ):
        self.states = frozenset(states)
        self.alphabet = alphabet
        self.transitions = tuple(sorted(transitions, key=lambda t: t.tid))
        by_src: dict[str, list[Transition]] = {}
        for t in self.transitions:
            by_src.setdefault(t.src, []).append(t)
        self._by_src = by_src

    def transitions_from(self, state: str) -> tuple[Transition, ...]:
        if state not in self.states:
            raise UnknownStateError(f"state {state!r} is not in the automaton")
        return tuple(self._by_src.get(state, ()))

    def max_tid(self) -> int:
        return max((t.tid for t in self.transitions), default=-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MNfa):
            return NotImplemented
        return (
            self.states == other.states
            and self.alphabet == other.alphabet
            and self.transitions == other.transitions
        )

    def __hash__(self) -> int:
        return hash((self.states, self.alphabet, self.transitions))

    def __repr__(self) -> str:
        return f"MNfa(states={len(self.states)}, transitions={len(self.transitions)})"


class _Index(NamedTuple):
    """Integer form of a pDFA over an alphabet, its own or a larger one.

    States get ids in ``names`` order; states that only transitions mention
    come after the listed ones.  Letter ``i`` is the alphabet's ``i``-th
    letter in sorted order, so two indexes over one alphabet share letter ids.
    It holds the transitions only, one column and one mask bit per letter;
    whatever is derived from them, such as reducedness, is computed from
    the columns where it is needed.
    """

    names: list[str]
    ids: dict[str, int]
    letters: list[str]
    inverse: list[int]  # letter id -> id of its inverse
    succ: list[list[int]]  # succ[i][p]: target of p on letter i, or -1
    masks: list[int]  # bit i of masks[p]: p reads letter i


def _blank_index(
    names: list[str], alphabet: InvolutiveAlphabet
) -> tuple[_Index, dict[str, tuple[list[int], int]]]:
    """An index of ``names`` with no transitions, and for each letter its
    successor column and its mask bit."""
    letters = alphabet.sorted_letters()
    inverse = [letters.index(alphabet.inv(x)) for x in letters]
    succ = [[-1] * len(names) for _ in letters]
    ix = _Index(names, dict(zip(names, range(len(names)))), letters, inverse, succ, [0] * len(names))
    return ix, {x: (succ[i], 1 << i) for i, x in enumerate(letters)}


def _build_index(
    names: list[str], alphabet: InvolutiveAlphabet, delta: dict[tuple[str, str], str]
) -> _Index:
    ix, by_letter = _blank_index(names, alphabet)
    ids, masks = ix.ids, ix.masks
    for (p, a), q in delta.items():
        i = ids[p]
        column, bit = by_letter[a]
        column[i] = ids[q]
        masks[i] |= bit
    return ix


def _widened(ix: _Index, alphabet: InvolutiveAlphabet) -> _Index:
    """``ix`` over a larger alphabet: the same state ids and columns, a
    ``-1`` column for each letter it lacks, and mask bits renumbered."""
    letters = alphabet.sorted_letters()
    inverse = [letters.index(alphabet.inv(x)) for x in letters]
    own = dict(zip(ix.letters, ix.succ))
    none = [-1] * len(ix.names)  # shared by the absent letters; callers only read
    succ = [own.get(x, none) for x in letters]
    masks = ix.masks
    pos = [letters.index(x) for x in ix.letters]  # old letter id -> new one
    if pos != list(range(len(pos))):
        renumbered = {m: sum(1 << j for i, j in enumerate(pos) if m >> i & 1) for m in set(masks)}
        masks = list(map(renumbered.__getitem__, masks))
    return _Index(ix.names, ix.ids, letters, inverse, succ, masks)


def _restrict(ix: _Index, keep: list[int], to: list[int] | None = None) -> _Index:
    """``ix`` on the states ``keep``, in that order, with each successor ``t``
    renamed ``to[t]``: by default its place in ``keep``.  A given ``to``
    ends in ``-1``, so that ``to[-1]`` keeps "no successor"."""
    if to is None:
        to = [-1] * (len(ix.names) + 1)
        for i, s in enumerate(keep):
            to[s] = i
    succ = [[to[col[s]] for s in keep] for col in ix.succ]
    names = [ix.names[s] for s in keep]
    return _Index(names, dict(zip(names, range(len(keep)))), ix.letters, ix.inverse, succ, [ix.masks[s] for s in keep])


def _decode_delta(ix: _Index) -> dict[tuple[str, str], str]:
    """The ``(state, letter) -> state`` map that ``ix`` encodes."""
    names = ix.names
    delta: dict[tuple[str, str], str] = {}
    for x, col in zip(ix.letters, ix.succ):
        delta.update(((names[p], x), names[q]) for p, q in enumerate(col) if q >= 0)
    return delta


class PDfa:
    """Partial deterministic finite automaton (a deterministic letter-labeled graph)."""

    # ``_violation`` caches ``reducedness_violation``: None until it runs,
    # then the pair it found, or ``()`` for a reduced automaton.  ``_preds``
    # caches ``_predecessors`` of the own index and ``_reached`` the last
    # ``(root, _reach list)``; both stay None until first asked.
    __slots__ = ("states", "alphabet", "_delta", "_index", "_violation", "_preds", "_reached")

    def __init__(
        self,
        states: Iterable[str],
        alphabet: InvolutiveAlphabet,
        delta: Mapping[tuple[str, str], str],
    ):
        self.states = frozenset(states)
        self.alphabet = alphabet
        self._delta: dict[tuple[str, str], str] | None = dict(delta)
        self._index: _Index | None = None
        self._violation: tuple | None = None
        self._preds: tuple[list[int], list[tuple[int, ...]]] | None = None
        self._reached: tuple[str, list[int]] | None = None

    @classmethod
    def _from_index(cls, alphabet: InvolutiveAlphabet, index: _Index) -> PDfa:
        """The pDFA whose states are ``index.names`` and whose transitions
        ``index``, an index over ``alphabet``, encodes."""
        d = cls.__new__(cls)
        d.states = frozenset(index.names)
        d.alphabet = alphabet
        d._delta = None
        d._index = index
        d._violation = None
        d._preds = None
        d._reached = None
        return d

    @property
    def delta(self) -> Mapping[tuple[str, str], str]:
        """The transitions as a read-only ``(state, letter) -> state`` view
        of the held map, which is decoded from the index on first read."""
        if self._delta is None:
            self._delta = _decode_delta(self._index)
        return MappingProxyType(self._delta)

    def out_set(self, p: str) -> frozenset[str]:
        """Letters readable from ``p``."""
        if p not in self.states:
            raise UnknownStateError(f"state {p!r} is not in the automaton")
        ix = self._indexed()
        return frozenset(x for x, col in zip(ix.letters, ix.succ) if col[ix.ids[p]] >= 0)

    def _indexed(self, alphabet: InvolutiveAlphabet | None = None) -> _Index:
        """The integer index of this automaton, built at most once.

        Over a larger ``alphabet``, such as a pair's merged one, a fresh
        uncached index with the same state ids is derived from it.
        """
        if self._index is None:
            names = list(self.states)
            delta = self._delta
            try:
                self._index = _build_index(names, self.alphabet, delta)
            except KeyError:
                # A transition names a letter outside the alphabet, or a
                # state outside ``states``; such states get the last ids.
                unknown = set(map(itemgetter(1), delta)) - self.alphabet.letters
                if unknown:
                    raise UnknownLetterError(f"letter {min(unknown)!r} is not in the alphabet") from None
                ends = set(map(itemgetter(0), delta)).union(delta.values())
                names += sorted(ends - self.states)
                self._index = _build_index(names, self.alphabet, delta)
        if alphabet is None or alphabet == self.alphabet:
            return self._index
        return _widened(self._index, alphabet)

    def run(self, p: str, word: Iterable[str]) -> str | None:
        """State reached from ``p`` by reading ``word``, or None if it dies.

        Steps through the index columns, so an index-only automaton decodes
        nothing.  An unknown state or letter ends the run; the empty word
        returns ``p`` as given.  A map that names a letter outside the
        alphabet raises ``UnknownLetterError``, as every decision does.
        """
        cur: str | None = p
        ix = self._indexed()
        columns = dict(zip(ix.letters, ix.succ))
        s = ix.ids.get(p, -1)
        for a in word:
            col = columns.get(a)
            s = col[s] if col is not None and s >= 0 else -1
            if s < 0:
                return None
            cur = ix.names[s]
        return cur

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PDfa):
            return NotImplemented
        return (
            self.states == other.states
            and self.alphabet == other.alphabet
            and self.delta == other.delta
        )

    def __hash__(self) -> int:
        return hash((self.states, self.alphabet, tuple(_sorted_transitions(self))))

    def __repr__(self) -> str:
        # Reading ``delta`` would decode the whole map only to count it.
        n = len(self._delta) if self._delta is not None else sum(map(int.bit_count, self._index.masks))
        return f"PDfa(states={len(self.states)}, transitions={n})"


def _sorted_transitions(d: PDfa) -> list[tuple[tuple[str, str], str]]:
    """``sorted(d.delta.items())``, without decoding a map the pDFA does not hold.

    Sorting a held map costs less than indexing it first, and listing an
    index by name rank, then letter id, less than decoding its map first.
    """
    if d._delta is not None:
        return sorted(d._delta.items())
    ix = d._index
    names, columns = ix.names, list(zip(ix.letters, ix.succ))
    rank = sorted(range(len(names)), key=names.__getitem__)
    return [((names[s], x), names[t]) for s in rank for x, col in columns if (t := col[s]) >= 0]


class Issue(NamedTuple):
    code: str
    detail: str
    ids: tuple


@dataclass
class ValidationReport:
    issues: list[Issue]

    @property
    def ok(self) -> bool:
        return not self.issues

    def codes(self) -> set[str]:
        return {i.code for i in self.issues}


def validate_mnfa(m: MNfa) -> ValidationReport:
    """Report dangling state references, unknown labels and duplicate ids."""
    issues: list[Issue] = []
    seen_ids: set[int] = set()
    for t in m.transitions:
        if t.tid in seen_ids:
            issues.append(Issue("DUPLICATE_ID", f"transition id {t.tid} used more than once", (t.tid,)))
        seen_ids.add(t.tid)
        if t.src not in m.states:
            issues.append(Issue("DANGLING_STATE", f"transition {t.tid} starts at unknown state {t.src!r}", (t.tid, t.src)))
        if t.dst not in m.states:
            issues.append(Issue("DANGLING_STATE", f"transition {t.tid} ends at unknown state {t.dst!r}", (t.tid, t.dst)))
        if t.label not in m.alphabet:
            issues.append(Issue("UNKNOWN_LABEL", f"transition {t.tid} is labeled with unknown letter {t.label!r}", (t.tid, t.label)))
    return ValidationReport(issues)


def validate_pdfa(d: PDfa) -> ValidationReport:
    issues: list[Issue] = []
    for (p, a), q in _sorted_transitions(d):
        if p not in d.states:
            issues.append(Issue("DANGLING_STATE", f"transition from unknown state {p!r}", (p,)))
        if q not in d.states:
            issues.append(Issue("DANGLING_STATE", f"transition ({p!r}, {a!r}) ends at unknown state {q!r}", (q,)))
        if a not in d.alphabet:
            issues.append(Issue("UNKNOWN_LABEL", f"transition from {p!r} is labeled with unknown letter {a!r}", (a,)))
    return ValidationReport(issues)


def find_nondeterministic_pair(m: MNfa) -> tuple[Transition, Transition] | None:
    """Two distinct transitions sharing start and label, if any exist."""
    seen: dict[tuple[str, str], Transition] = {}
    for t in m.transitions:
        key = (t.src, t.label)
        if key in seen:
            return (seen[key], t)
        seen[key] = t
    return None


def as_pdfa(m: MNfa) -> PDfa:
    """Reinterpret an mNFA as a pDFA.

    Succeeds exactly when no two distinct transitions share start state and
    label; the result generates the same tree from every state.
    """
    pair = find_nondeterministic_pair(m)
    if pair is not None:
        a, b = pair
        raise NotDeterministicError(
            f"transitions {a.tid} and {b.tid} both read {a.label!r} from state {a.src!r}",
            pair=pair,
        )
    delta = {(t.src, t.label): t.dst for t in m.transitions}
    return PDfa(m.states, m.alphabet, delta)


def pdfa_to_mnfa(d: PDfa) -> MNfa:
    """View a pDFA as an mNFA, with ids assigned in sorted transition order."""
    transitions = [
        Transition(i, p, a, q)
        for i, ((p, a), q) in enumerate(_sorted_transitions(d))
    ]
    return MNfa(d.states, d.alphabet, transitions)


def reducedness_violation(d: PDfa) -> tuple[tuple[str, str, str], tuple[str, str, str]] | None:
    """A pair of transitions ``p -a-> q``, ``q -a^-1-> r``, if one exists.

    Such a pair puts a word with an ``a a^-1`` factor in the language of
    ``p``, which is what reducedness forbids.  For a self-inverse letter this
    degenerates to an ``a a`` path.  Of all such pairs, the one with the
    smallest ``(p, a, q)`` is returned.  Decided once per automaton from
    its successor columns, without decoding ``delta``.
    """
    if d._violation is None:
        ix = d._indexed()
        names, letters, succ = ix.names, ix.letters, ix.succ
        read = reduce(or_, ix.masks, 0)  # bit i: some state reads letter i
        pairs = []
        for a, b in enumerate(ix.inverse):
            if read >> a & read >> b & 1:
                col, back = succ[a], succ[b] + [-1]  # back[-1]: "no successor" reads nothing
                # One pass: does any a-successor read b?
                if max(map(back.__getitem__, col)) >= 0:
                    p = min((p for p, q in enumerate(col) if back[q] >= 0), key=names.__getitem__)
                    q = col[p]
                    pairs.append(((names[p], letters[a], names[q]), (names[q], letters[b], names[back[q]])))
        d._violation = min(pairs, default=())
    return d._violation or None


def is_reduced(d: PDfa) -> bool:
    return reducedness_violation(d) is None


def require_reduced(d: PDfa, what: str = "automaton") -> None:
    pair = reducedness_violation(d)
    if pair is not None:
        (p, a, q), (_, ainv, r) = pair
        raise NotReducedError(
            f"{what} is not reduced: {p!r} -{a}-> {q!r} -{ainv}-> {r!r}",
            pair=pair,
        )


def _build_predecessors(ix: _Index) -> tuple[list[int], list[tuple[int, ...]]]:
    """The predecessor form of ``ix``: its ids in name order, and for each
    id one flat tuple ``(letter, source, letter, source, …)`` ascending by
    letter, then by source name.  It costs one list entry per state and two
    tuple entries per transition: the ids are the index's own integers."""
    names = ix.names
    order = sorted(ix.ids.values(), key=names.__getitem__)
    into: list[list[int]] = [[] for _ in names]
    for i, col in enumerate(ix.succ):
        for s in order:
            t = col[s]
            if t >= 0:
                pairs = into[t]
                pairs.append(i)
                pairs.append(s)
    return order, list(map(tuple, into))  # ``tuple([])`` is the one shared empty tuple


def _predecessors(d: PDfa, ix: _Index) -> tuple[list[int], list[tuple[int, ...]]]:
    """The predecessor form of ``ix``, an index of ``d``: kept on ``d`` for
    its own index, and built fresh and kept nowhere for an index over a
    larger alphabet, whose letter ids may differ.  Callers only read it."""
    if ix is not d._index:
        return _build_predecessors(ix)
    if d._preds is None:
        d._preds = _build_predecessors(ix)
    return d._preds


def _walk(ix: _Index, start: int) -> list[int]:
    """Ids reachable from ``start`` in ``ix``, in the order of one
    breadth-first worklist walk."""
    todo = [start]
    seen = {start, -1}  # -1, "no successor", is never queued
    for p in todo:
        for col in ix.succ:
            q = col[p]
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return todo


def _reach(d: PDfa, root: str) -> list[int]:
    """Index ids of the states reachable from ``root``, as ``_walk`` lists
    them.  The list for the last root asked is kept on ``d``, so callers
    only read it."""
    if d._reached is None or d._reached[0] != root:
        ix = d._indexed()
        todo = _walk(ix, ix.ids[root])
        if max(todo) >= len(d.states):  # ids past those are states only transitions name
            raise UnknownStateError(f"state {ix.names[max(todo)]!r} is not in the automaton")
        d._reached = (root, todo)
    return d._reached[1]


def _require_pair(a: PDfa, p_root: str, b: PDfa, q_root: str) -> InvolutiveAlphabet:
    """Check that two pDFAs are reduced and hold their designated states;
    return their merged alphabet."""
    require_reduced(a, "first automaton")
    require_reduced(b, "second automaton")
    if p_root not in a.states:
        raise UnknownStateError(f"state {p_root!r} is not in the first automaton")
    if q_root not in b.states:
        raise UnknownStateError(f"state {q_root!r} is not in the second automaton")
    return merge_alphabets(a.alphabet, b.alphabet)


def reachable_states(aut: MNfa | PDfa, root: str) -> set[str]:
    if root not in aut.states:
        raise UnknownStateError(f"state {root!r} is not in the automaton")
    if isinstance(aut, PDfa):
        return {aut._indexed().names[p] for p in _reach(aut, root)}
    seen = frontier = {root}
    while frontier:
        frontier = {t.dst for p in frontier for t in aut.transitions_from(p)} - seen
        seen |= frontier
    return seen


def trim(aut: MNfa | PDfa, root: str) -> MNfa | PDfa:
    """Restrict to the states reachable from ``root``.

    The tree generated from ``root`` is unchanged at every radius, and
    ``root`` becomes a root of the result.
    """
    if isinstance(aut, MNfa):
        keep = reachable_states(aut, root)
        transitions = [t for t in aut.transitions if t.src in keep]
        return MNfa(keep, aut.alphabet, transitions)
    if root not in aut.states:
        raise UnknownStateError(f"state {root!r} is not in the automaton")
    return PDfa._from_index(aut.alphabet, _restrict(aut._indexed(), sorted(_reach(aut, root))))
