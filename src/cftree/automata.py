"""Multi-edge NFAs and partial DFAs over involutive alphabets.

An :class:`MNfa` is a finite edge-labeled multigraph: parallel transitions
with identical endpoints and label are distinguished by an integer id.  A
:class:`PDfa` is a partial function ``(state, letter) -> state``, so
determinism holds by representation.  It is held as a map, as an integer
index (one successor column per letter), or both, and each form is derived
from the other on first use: a pDFA built from a map indexes it when a
decision first runs, and one loaded from a document, compressed from a
finite tree, or made by a quotient, ``trim`` or a re-rooting (the last three
through ``_restrict``) holds only its index until ``delta``, a read-only
view of the map, is read.  Both kinds are
immutable after construction, so the index and the verdicts kept from it
stay true.  ``_sorted_transitions`` lists the transitions in order from
whichever form is held, so writers, ``pdfa_to_mnfa``, ``validate_pdfa`` and
hashing decode nothing.  All checks live in separate functions so a caller
can collect every problem at once instead of failing fast.  Two more
things are kept next to the index.  Reducedness is one fact about a pDFA:
``reducedness_violation`` decides it from the successor columns the first
time it is asked and keeps the verdict.  And for the last root a refinement
asked, a pDFA keeps the ``_classes`` side of the states that root reaches
(``_predecessors``: the index, those ids in name order, each id's
``(letter, source)`` pairs, and each id's three-round key: the out-masks
of the tree it generates, down to depth 3, depth by depth and only for the
letters read), built the first time a refinement asks for it.  ``_walk``
and ``_reach`` keep nothing, so ``trim``, re-rooting, ``reachable_states``
and ``iso_rooted`` leave the side as it was.  ``quotient`` and
``language_classes`` ask for every state, which a root that reaches them
all also serves.  An index over a larger merged alphabet gets a side kept
nowhere.  The state equivalence (``_classes``) is here too, so one module
lays out the keys and reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add, itemgetter, or_
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

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


def _restrict(ix: _Index, keep: list[int], to: list[int] | None = None, copies: Sequence[str] = ()) -> _Index:
    """``ix`` on the states ``keep``, one row each in that order, with each
    successor ``t`` renamed ``to[t]``: by default its place in ``keep``
    before the last ``len(copies)`` rows.  Those rows copy the rows of
    their states under the names ``copies``.  A given ``to`` ends in
    ``-1``, so that ``to[-1]`` keeps "no successor".  Costs one
    O(|ix|) list fill for the default ``to``, then O(|Σ|) per row."""
    own = keep[: len(keep) - len(copies)]
    if to is None:
        to = [-1] * (len(ix.names) + 1)
        for i, s in enumerate(own):
            to[s] = i
    succ = [[to[col[s]] for s in keep] for col in ix.succ]
    names = [*map(ix.names.__getitem__, own), *copies]
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
    # then the pair it found, or ``()`` for a reduced automaton.
    # ``_form`` is None until a refinement first asks, then ``(root, side)``:
    # the last root asked (None for every state) and ``_predecessors``' side
    # of the ids it reaches on the own index.
    __slots__ = ("states", "alphabet", "_delta", "_index", "_violation", "_form")

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
        self._form: tuple | None = None

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
        d._form = None
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
            and _sorted_transitions(self) == _sorted_transitions(other)
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


# What ``_build_predecessors`` returns and ``_classes`` reads.
_Side = tuple[_Index, list[int], list[tuple[int, ...]], list[int]]


def _build_predecessors(ix: _Index, keep: Iterable[int]) -> _Side:
    """The ``_classes`` side of the ids ``keep`` of ``ix``, a set closed
    under successors: ``ix``; those ids in name order; for each id of
    ``ix`` one flat tuple ``(letter, source, letter, source, …)`` of its
    sources in ``keep``, ascending by letter, then by source name; and for
    each kept id, in name order, its three-round key.  An id not kept gets
    the shared empty tuple, so the work follows the kept ids: one list entry
    per kept state, two tuple entries per kept transition, and for each of
    Moore's three rounds one ``bytes.join`` per kept state.

    A key is the little-endian integer of a byte string that lists
    out-masks, ``ceil(k / 8)`` bytes each for ``k`` letters, depth by depth
    down the tree the id generates: its own mask, then its successors'
    masks, then theirs, then theirs, each depth in letter order and only
    for the letters read.  The masks of one depth say how many the next
    one holds, so a key delimits itself.  Depth 3 comes first, after a
    header of ``_header(k)`` bytes that holds the byte offset of depth 0,
    and depths 0 to 2 come last, so ``key >> 8 * (key & (1 << 8 *
    _header(k)) - 1)`` is the two-round part.  Two ids over one alphabet get
    equal keys exactly when three rounds of Moore's refinement do not
    separate them, and equal two-round parts exactly when two rounds do
    not.  With ``d`` letters read per state, a key holds about ``1 + d + d²
    + d³`` masks.
    """
    order = sorted(keep, key=ix.names.__getitem__)
    keys = _moore_keys(ix, order)  # first: its tables are gone before the tuples are built
    into: list = [()] * len(ix.names)
    for s in order:
        into[s] = []
    for i, col in enumerate(ix.succ):
        for s in order:
            t = col[s]
            if t >= 0:
                pairs = into[t]
                pairs.append(i)
                pairs.append(s)
    for s in order:
        into[s] = tuple(into[s])
    return ix, order, into, keys


def _header(k: int) -> int:
    """The bytes of the header of a three-round key over ``k`` letters,
    which holds the byte offset of the key's depth 0: past the header
    itself and depth 3, at most ``k**3`` masks."""
    head = 1
    while 256**head <= head + k**3 * (k + 7 >> 3):
        head += 1
    return head


def _moore_keys(ix: _Index, order: list[int]) -> list[int]:
    """The three-round keys of ``_build_predecessors``, for ``order``.
    Depth ``d`` of an id is the concatenation, in letter order, of depth
    ``d - 1`` of its successors, so each round is one join per id over a
    table of the depth before; ``table[-1]``, "no successor", adds nothing."""
    width, head = len(ix.letters) + 7 >> 3, _header(len(ix.letters))
    masks = ix.masks
    as_bytes = {m: m.to_bytes(width, "little") for m in set(map(masks.__getitem__, order))}
    depth = upper = list(map(as_bytes.__getitem__, map(masks.__getitem__, order)))
    table = [b""] * (len(ix.names) + 1)
    for r in range(3):
        for s, x in zip(order, depth):
            table[s] = x
        depth = list(map(b"".join, zip(*[map(table.__getitem__, map(col.__getitem__, order)) for col in ix.succ])))
        if r < 2:  # ``upper`` gathers depths 0 to 2
            upper = list(map(add, upper, depth))
    del table  # depth 2, no longer read, goes before the keys are joined
    offsets = {n: (head + n).to_bytes(head, "little") for n in set(map(len, depth))}
    heads = map(offsets.__getitem__, map(len, depth))
    return list(map(int.from_bytes, map(b"".join, zip(heads, depth, upper)), repeat("little")))


def _classes(sides: list[_Side]) -> tuple[list[int], int, list[set[int]]]:
    """Partition refinement on indexes side by side, in place.

    Each side is ``(ix, order, into, keys)``, as ``_predecessors`` returns
    it, all over one alphabet: an index, the ids kept, a set closed under
    successors, in name order, each id's predecessor tuple and, in
    ``order``, the kept ids' three-round keys.  Side ``j``'s id ``s`` is
    shifted to ``j * stride + s``, where ``stride`` is the power of two
    above the largest index size, so a shifted id splits into side and id
    with two bit operations.  Nothing is copied, and apart from one list of
    blocks, filled with ``-1`` in C, the work follows the kept ids.  Returns
    the blocks, for each shifted id, of the coarsest partition of the kept
    states that separates out-masks and is stable under every letter
    (Hopcroft 1971; Valmari and Lehtinen 2008 for partial functions), with
    ``-1`` for an id not kept; ``stride``; and the members of each block,
    as sets of shifted ids.  Refinement starts from the blocks of equal
    keys, Moore's third round, which one pass over the kept ids numbers in
    order of first key, filling each id's block and its block's members as
    it goes.  That partition is stable under each block of equal two-round
    parts, which a key's header locates, so within each such block every
    key block but the largest, the first one on ties, starts out pending
    (Hopcroft's lemma, applied to each two-round block as a compound
    splitter, as Paige and Tarjan do).  One more pass over the key blocks
    picks them: one shift and one ``setdefault`` per key block, and a size
    comparison only for a key block whose two-round part another one
    already holds.
    """
    preds = [into for _, _, into, _ in sides]
    header = (1 << 8 * _header(len(sides[0][0].letters))) - 1  # a key's header bits
    bits = max(len(ix.names) for ix, *_ in sides).bit_length()
    stride, low = 1 << bits, (1 << bits) - 1
    offsets = range(0, stride * len(sides), stride)
    block = [-1] * (stride * len(sides))
    by_key: dict[int, int] = {}  # a key -> its block
    members: list[set[int]] = []
    for o, (_, order, _, keys) in zip(offsets, sides):
        for s, key in zip(order, keys):
            s += o
            b = by_key.get(key)
            if b is None:
                block[s] = by_key[key] = len(members)
                members.append({s})
            else:
                block[s] = b
                members[b].add(s)
    largest: dict[int, int] = {}  # two-round part -> its largest key block so far
    pending: set[int] = set()
    for key, b in by_key.items():
        first = key >> 8 * (key & header)
        c = largest.setdefault(first, b)
        if c != b:  # a second key block of this part: the smaller one waits
            if len(members[b]) > len(members[c]):
                largest[first], b = b, c
            pending.add(b)
    while pending:
        # Plain dicts and ``next`` on one iterator cost less here than
        # ``defaultdict`` and ``zip``.
        sources: dict[int, list[int]] = {}
        for t in members[pending.pop()]:
            q = t & low
            o = t - q
            pairs = iter(preds[t >> bits][q])
            for i in pairs:
                s = next(pairs) + o
                if i in sources:
                    sources[i].append(s)
                else:
                    sources[i] = [s]
        for hit_states in sources.values():
            hit: dict[int, list[int]] = {}
            for s in hit_states:
                b = block[s]
                if b in hit:
                    hit[b].append(s)
                else:
                    hit[b] = [s]
            for b, part in hit.items():
                if len(part) == len(members[b]):
                    continue
                members[b].difference_update(part)
                new = len(members)
                members.append(set(part))
                for s in part:
                    block[s] = new
                # Hopcroft: a block not waiting to split others queues only
                # its smaller half.
                pending.add(b if b not in pending and len(members[b]) < len(part) else new)
    return block, stride, members


def _predecessors(d: PDfa, ix: _Index, root: str | None = None) -> _Side:
    """The ``_classes`` side of the ids of ``ix``, an index of ``d``, that
    ``root`` reaches, or of every id for None, which raises for a state that
    only transitions name as ``_reach`` does for a reached one.  On ``d``'s
    own index the side is kept in ``d._form``, so another root replaces it;
    a side whose root reaches every id also serves None.  An index over a
    larger alphabet, whose letter ids may differ, gets a fresh side kept
    nowhere.  Callers only read it."""
    if ix is d._index and d._form is not None:
        kept, side = d._form
        if kept == root or root is None and len(side[1]) == len(ix.names):
            return side
    if root is not None:
        keep = _reach(d, root)
    elif len(ix.names) > len(d.states):  # ids past those are states only transitions name
        raise UnknownStateError(f"state {ix.names[len(d.states)]!r} is not in the automaton")
    else:
        keep = range(len(ix.names))
    side = _build_predecessors(ix, keep)
    if ix is d._index:
        d._form = (root, side)
    return side


def _walk(ix: _Index, *starts: int) -> list[int]:
    """Ids reachable from the ids ``starts`` in ``ix``, in the order of one
    breadth-first worklist walk from the distinct starts in ascending
    order; a start ``-1``, "no successor", is skipped.  Costs O(|Σ|) per
    id reached."""
    seen = {-1, *starts}  # -1 is never queued
    todo = sorted(seen)[1:]
    for p in todo:
        for col in ix.succ:
            q = col[p]
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return todo


def _reach(d: PDfa, root: str) -> list[int]:
    """Index ids of the states reachable from ``root``, as ``_walk`` lists
    them; a reached state that only transitions name raises."""
    ix = d._indexed()
    todo = _walk(ix, ix.ids[root])
    if max(todo) >= len(d.states):  # ids past those are states only transitions name
        raise UnknownStateError(f"state {ix.names[max(todo)]!r} is not in the automaton")
    return todo


def _require_pair(a: PDfa, p_root: str, b: PDfa, q_root: str) -> InvolutiveAlphabet:
    """Check that two pDFAs are reduced and hold their designated states;
    return their merged alphabet, ``a``'s own when the two are equal."""
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
