import copy
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import samples
from cftree import (
    InvolutiveAlphabet,
    MNfa,
    NotDeterministicError,
    NotReducedError,
    PDfa,
    Transition,
    UnknownStateError,
    as_pdfa,
    disc_equal_rooted,
    export_dot,
    find_nondeterministic_pair,
    involutive_closure,
    is_reduced,
    merge_alphabets,
    pdfa_to_mnfa,
    quotient,
    reducedness_violation,
    require_reduced,
    reroot_along_word,
    trim,
    unfold_mnfa,
    unfold_pdfa,
    validate_mnfa,
    validate_pdfa,
)
from cftree import automata
from cftree.automata import _build_index, _sorted_transitions
from cftree.jsonio import automaton_from_doc, automaton_to_doc, automaton_to_json
from oracles import (
    dumps_stdlib,
    export_dot_pdfa_by_delta,
    pdfa_doc_by_delta,
    reducedness_violation_by_scan,
    trim_by_delta,
)
from randgen import random_alphabet, random_pdfa, random_reduced_pdfa

SRC = Path(__file__).resolve().parent.parent / "src"


def test_validate_two_loop_mnfa_ok():
    assert validate_mnfa(samples.one_state_two_loops()).ok


def test_validate_unknown_label():
    m = MNfa({"p"}, involutive_closure(["a"]), [Transition(0, "p", "z", "p")])
    report = validate_mnfa(m)
    assert not report.ok
    assert "UNKNOWN_LABEL" in report.codes()


def test_validate_empty_transitions_ok():
    m = MNfa({"p"}, involutive_closure(["a"]), [])
    assert validate_mnfa(m).ok


def test_validate_dangling_and_duplicate():
    m = MNfa(
        {"p"},
        involutive_closure(["a"]),
        [Transition(0, "p", "a", "ghost"), Transition(0, "p", "a", "p"), Transition(1, "ghost", "a", "p")],
    )
    report = validate_mnfa(m)
    assert {"DANGLING_STATE", "DUPLICATE_ID"} <= report.codes()
    assert "transition 1 starts at unknown state 'ghost'" in [i.detail for i in report.issues]


def test_as_pdfa_fails_on_parallel_loops():
    m = samples.one_state_two_loops()
    with pytest.raises(NotDeterministicError) as exc:
        as_pdfa(m)
    t0, t1 = exc.value.pair
    assert (t0.tid, t1.tid) == (0, 1)
    assert t0.src == t1.src and t0.label == t1.label and t0 != t1


def test_as_pdfa_on_deterministic_mnfa():
    d = as_pdfa(samples.astar_bstar_mnfa())
    assert d.states == {"p", "q"}
    assert len(d.delta) == 3
    assert d == samples.astar_bstar_pdfa()


def test_as_pdfa_empty_transitions():
    m = MNfa({"p"}, involutive_closure(["a"]), [])
    d = as_pdfa(m)
    assert d.delta == {}


def test_as_pdfa_succeeds_iff_no_pair_scan_hit():
    # The conversion must agree with an exhaustive scan over transition pairs.
    rng = random.Random(7)
    al = involutive_closure(["a", "b"])
    letters = al.sorted_letters()
    for _ in range(200):
        n = rng.randint(1, 3)
        states = [f"s{i}" for i in range(n)]
        ts = [
            Transition(i, rng.choice(states), rng.choice(letters), rng.choice(states))
            for i in range(rng.randint(0, 5))
        ]
        m = MNfa(states, al, ts)
        scan_hit = any(
            t1.src == t2.src and t1.label == t2.label
            for i, t1 in enumerate(ts)
            for t2 in ts[i + 1 :]
        )
        assert (find_nondeterministic_pair(m) is not None) == scan_hit
        if scan_hit:
            with pytest.raises(NotDeterministicError):
                as_pdfa(m)
        else:
            as_pdfa(m)


def test_is_reduced_loop_both_directions():
    d = samples.loop_both_directions()
    assert not is_reduced(d)
    first, second = reducedness_violation(d)
    assert first == ("p", "a", "p") or first == ("p", "a^-1", "p")
    assert second[1] == d.alphabet.inv(first[1])


def test_is_reduced_astar_bstar():
    assert is_reduced(samples.astar_bstar_pdfa())


def test_two_incoming_a_transitions_still_reduced():
    # Distinct a-edges into one state are fine; only letter-inverse paths hurt.
    al = involutive_closure(["a"])
    d = PDfa({"p", "q", "r"}, al, {("p", "a"): "r", ("q", "a"): "r"})
    assert is_reduced(d)


def test_self_inverse_letter_reducedness():
    from cftree import InvolutiveAlphabet

    al = InvolutiveAlphabet({"c"}, {"c": "c"})
    d = PDfa({"p", "q"}, al, {("p", "c"): "q", ("q", "c"): "p"})
    assert not is_reduced(d)
    d2 = PDfa({"p", "q"}, al, {("p", "c"): "q"})
    assert is_reduced(d2)


def test_reducedness_violation_matches_sorted_scan():
    rng = random.Random(31)
    self_inverse = InvolutiveAlphabet({"c"}, {"c": "c"})
    mixed = InvolutiveAlphabet({"a", "a^-1", "c"}, {"a": "a^-1", "a^-1": "a", "c": "c"})
    cases = []
    for _ in range(150):
        alphabet = random_alphabet(rng)
        cases.append(random_pdfa(rng, rng.randint(1, 12), alphabet)[0])
        cases.append(random_reduced_pdfa(rng, rng.randint(1, 12), alphabet)[0])
    for alphabet in (self_inverse, mixed):
        for _ in range(100):
            cases.append(random_pdfa(rng, rng.randint(1, 6), alphabet, density=rng.random())[0])
    # States that only transitions mention.
    cases.append(PDfa({"p"}, samples.AL_A, {("p", "a"): "q", ("q", "a^-1"): "r"}))
    cases.append(PDfa({"p"}, samples.AL_A, {("p", "a"): "q", ("r", "a^-1"): "p"}))
    found = 0
    for d in cases:
        expected = reducedness_violation_by_scan(d)
        assert reducedness_violation(d) == expected
        found += expected is not None
    assert 100 < found < len(cases) - 100


def test_reducedness_from_the_columns_matches_the_scan():
    # The verdict and the named pair come from the successor columns.  They
    # equal the sorted scan over the map for pDFAs built from a map, some
    # with states that only transitions name, and for ones loaded from a
    # document, which stay undecoded.  Some alphabets have a self-inverse
    # letter, or one whose inverse no state reads.
    rng = random.Random(97)
    self_inverse = InvolutiveAlphabet({"c"}, {"c": "c"})
    mixed = InvolutiveAlphabet({"a", "a^-1", "c"}, {"a": "a^-1", "a^-1": "a", "c": "c"})
    seen = Counter()
    for i in range(1200):
        alphabet = (None, mixed, self_inverse)[i % 3]
        if rng.random() < 0.5:
            d, root = random_pdfa(rng, rng.randint(1, 10), alphabet, density=rng.random())
        else:
            d, root = random_reduced_pdfa(rng, rng.randint(1, 10), alphabet, extra_density=rng.random())
        form = ("map", "loaded", "ghosts")[i % 4 % 3]
        if form == "loaded":
            d = automaton_from_doc(automaton_to_doc(d, root=root))[0]
        else:
            letters, ends = d.alphabet.sorted_letters(), [*sorted(d.states), "g0", "g1"]
            ghosts = {(rng.choice(ends), rng.choice(letters)): rng.choice(ends) for _ in range(rng.randint(1, 4))}
            d = PDfa(d.states, d.alphabet, {**d.delta, **ghosts} if form == "ghosts" else d.delta)
        got = reducedness_violation(d)
        assert (d._delta is None) == (form == "loaded")
        expected = reducedness_violation_by_scan(d)
        assert got == expected and is_reduced(d) == (expected is None)
        seen[form, expected is None] += 1
    assert min(seen.values()) >= 50 and len(seen) == 6, seen
    assert sum(n for (_, ok), n in seen.items() if ok) >= 200
    assert sum(n for (_, ok), n in seen.items() if not ok) >= 200


def test_reducedness_is_decided_once_per_pdfa(monkeypatch):
    indexed, decoded = [], []
    index, decode = PDfa._indexed, automata._decode_delta
    monkeypatch.setattr(PDfa, "_indexed", lambda d, *a: indexed.append(d) or index(d, *a))
    monkeypatch.setattr(automata, "_decode_delta", lambda ix: decoded.append(ix) or decode(ix))
    bad = automaton_from_doc(automaton_to_doc(samples.loop_both_directions(), root="p"))[0]
    for d in (samples.astar_bstar_pdfa(), bad):
        for attempt in range(3):
            indexed.clear()
            try:
                require_reduced(d)
            except NotReducedError as e:
                assert d is bad and e.pair == reducedness_violation(d)
            else:
                assert d is not bad
            assert len(indexed) == (attempt == 0)
    assert decoded == []
    assert not is_reduced(bad) and indexed == []


def test_out_set():
    d = samples.astar_bstar_pdfa()
    assert d.out_set("p") == {"a", "b"}
    assert d.out_set("q") == {"b"}
    al = involutive_closure(["a"])
    iso = PDfa({"lonely"}, al, {})
    assert iso.out_set("lonely") == frozenset()
    with pytest.raises(UnknownStateError):
        d.out_set("ghost")


def test_run_stops_where_the_word_dies():
    d = samples.astar_bstar_pdfa()
    assert d.run("p", ["a", "b", "b"]) == "q"
    assert d.run("p", ["b", "a", "b"]) is None  # dies at the second letter
    assert d.run("p", ["b", "a"]) is None


def test_run_steps_through_the_index_without_decoding(monkeypatch):
    # A pDFA that holds only its index, as ``trim`` makes it, and one that
    # holds its map read words off the index columns, with the answers a
    # walk of the map gives: for an unknown state, an unknown letter and
    # the empty word too.
    held = samples.astar_bstar_pdfa()
    indexed = trim(held, "p")
    decodes = Counter()
    decode = automata._decode_delta
    monkeypatch.setattr(automata, "_decode_delta", lambda ix: decodes.update(["_decode_delta"]) or decode(ix))

    def walk(p, w):
        for x in w:
            p = held.delta.get((p, x))
            if p is None:
                return None
        return p

    words = [(), ("a",), ("a", "b", "b"), ("b", "a", "b"), ("b", "a"), ("a^-1",), ("a", "zz"), ("zz",)]
    answers = [(p, w, walk(p, w)) for p in ("p", "q", "nowhere") for w in words]
    assert {x for *_, x in answers} == {"p", "q", "nowhere", None}
    for d in (held, indexed):
        assert [(p, w, d.run(p, w)) for p, w, _ in answers] == answers
    assert not decodes and indexed._delta is None


def test_trim_identity_when_all_reachable():
    m = samples.astar_bstar_mnfa()
    assert trim(m, "p") == m


def test_trim_drops_other_component():
    al = involutive_closure(["a"])
    m = MNfa(
        {"p", "q", "isolated"},
        al,
        [Transition(0, "p", "a", "q"), Transition(1, "isolated", "a", "isolated")],
    )
    t = trim(m, "p")
    assert t.states == {"p", "q"}
    assert len(t.transitions) == 1


def test_trim_idempotent():
    m = samples.astar_bstar_mnfa()
    assert trim(trim(m, "p"), "p") == trim(m, "p")


def test_trim_unknown_state():
    with pytest.raises(UnknownStateError):
        trim(samples.astar_bstar_mnfa(), "ghost")


# An mNFA whose one listed state ``p`` reaches twelve unlisted ones: ``xi``
# through transition ``11 - i``, so the first one expanded, ``x11``, is not
# the one with the smallest name, ``x0``.
_UNLISTED_FAN = """
from cftree import MNfa, Transition, UnknownStateError, involutive_closure
from cftree import reachable_states, reroot_step, trim, unfold_mnfa

m = MNfa({"p"}, involutive_closure(["a", "b"]), [Transition(i, "p", "a", f"x{11 - i}") for i in range(12)])
for call in (reachable_states, trim, lambda m, p: unfold_mnfa(m, p, 2), lambda m, p: reroot_step(m, p, 3)):
    try:
        call(m, "p")
    except UnknownStateError as e:
        print(e)
print(len(unfold_mnfa(m, "p", 1)))
"""


def test_mnfa_operations_name_the_same_unlisted_state_under_every_hash_seed():
    """``reachable_states`` and ``trim`` walk the whole reach and name the
    unlisted state with the smallest name; ``unfold_mnfa`` and
    ``reroot_step`` name the first they expand, and a disc that holds them
    only as leaves is returned."""
    expected = [f"state {x!r} is not in the automaton" for x in ("x0", "x0", "x11", "x8")] + ["13"]
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", _UNLISTED_FAN],
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == expected, seed


def test_trim_preserves_discs():
    rng = random.Random(21)
    for _ in range(20):
        d, root = random_reduced_pdfa(rng, rng.randint(2, 5))
        extra = PDfa(
            d.states | {"junk"},
            d.alphabet,
            {**d.delta, ("junk", d.alphabet.sorted_letters()[0]): "junk"},
        )
        m = pdfa_to_mnfa(extra)
        trimmed = trim(m, root)
        for radius in range(9):
            x = unfold_mnfa(m, root, radius)
            y = unfold_mnfa(trimmed, root, radius)
            assert disc_equal_rooted(x, y, use_labels=True)


def test_trim_on_the_index_matches_the_map_filter():
    # A second part that the root does not reach sends transitions into the
    # first, so the trimmed pDFA's reducedness must not count them.  Built
    # from a map or loaded into its index, the trimmed pDFA holds only an
    # index, equal to one built fresh from the filtered map.
    rng = random.Random(83)
    dropped = 0
    for i in range(200):
        d, root = random_pdfa(rng, rng.randint(1, 8), density=0.3)
        letters = d.alphabet.sorted_letters()
        junk = {(f"z{j}", rng.choice(letters)): rng.choice(sorted(d.states)) for j in range(rng.randint(0, 3))}
        d = PDfa(d.states | {p for p, _ in junk}, d.alphabet, {**d.delta, **junk})
        if i % 2:
            d = automaton_from_doc(automaton_to_doc(d))[0]
        got, want = trim(d, root), trim_by_delta(d, root)
        assert got._delta is None
        ix = got._indexed()
        fresh = _build_index(ix.names, got.alphabet, want.delta)
        assert (ix.succ, ix.masks) == (fresh.succ, fresh.masks)
        assert got == want and is_reduced(got) == is_reduced(want)
        dropped += len(d.states) - len(got.states)
    assert dropped >= 200
    with pytest.raises(UnknownStateError):
        trim(samples.ray(), "ghost")
    dangling = PDfa({"p"}, samples.AL_A, {("p", "a"): "zz"})
    with pytest.raises(UnknownStateError, match="'zz'"):
        trim(dangling, "p")


def test_repr_of_a_loaded_pdfa_decodes_nothing(monkeypatch):
    # A pDFA loaded from a document counts its transitions from the index.
    d = samples.astar_bstar_pdfa()
    loaded = automaton_from_doc(automaton_to_doc(d))[0]
    monkeypatch.setattr(automata, "_decode_delta", lambda ix: pytest.fail("repr decoded the map"))
    assert loaded._delta is None
    assert repr(loaded) == repr(d) == f"PDfa(states=2, transitions={len(d.delta)})"


def _walk(rng, d, root):
    """A random word of up to six letters readable from ``root``."""
    word, state = [], root
    for _ in range(rng.randint(0, 6)):
        out = sorted(d.out_set(state))
        if not out:
            break
        word.append(rng.choice(out))
        state = d.run(state, word[-1:])
    return word


def test_sorted_transitions_match_the_sorted_map():
    # The ordered listing equals ``sorted(dict(d.delta).items())`` for pDFAs
    # built from a map, some with states that only transitions name and
    # letters outside the alphabet, and for ones that hold only an index:
    # loaded from a document or made by ``trim``, ``quotient`` or a
    # re-rooting.  So do the document bytes, the DOT text, the mNFA view,
    # the validation report and the hash, none of which decodes the map.
    rng = random.Random(101)
    self_inverse = InvolutiveAlphabet({"c"}, {"c": "c"})
    mixed = InvolutiveAlphabet({"a", "a^-1", "c"}, {"a": "a^-1", "a^-1": "a", "c": "c"})
    forms = ("map", "ghosts", "loaded", "trim", "quotient", "reroot")
    seen = Counter()
    for i in range(360):
        alphabet = (None, mixed, self_inverse)[i % 3]
        form = forms[i // 3 % len(forms)]
        d, root = random_reduced_pdfa(rng, rng.randint(1, 10), alphabet, extra_density=rng.random())
        if form == "ghosts":
            letters, ends = [*d.alphabet.sorted_letters(), "z"], [*sorted(d.states), "g0", "g1"]
            ghosts = {(rng.choice(ends), rng.choice(letters)): rng.choice(ends) for _ in range(rng.randint(1, 4))}
            d = PDfa(d.states, d.alphabet, {**d.delta, **ghosts})
        elif form == "loaded":
            d = automaton_from_doc(automaton_to_doc(d, root=root))[0]
        elif form == "trim":
            root = rng.choice(sorted(d.states))
            d = trim(d, root)
        elif form == "quotient":
            d, cls = quotient(d)
            root = cls[root]
        elif form == "reroot":
            d, root = reroot_along_word(d, root, _walk(rng, d, root))
        index_only = form not in ("map", "ghosts")
        assert (d._delta is None) == index_only
        got = _sorted_transitions(d)
        doc, dot, view = automaton_to_json(d, root), export_dot(d), pdfa_to_mnfa(d)
        report, key = validate_pdfa(d), hash(d)
        assert (d._delta is None) == index_only
        want = sorted(dict(d.delta).items())
        assert got == want
        assert doc == dumps_stdlib(pdfa_doc_by_delta(d, root))
        assert dot == export_dot_pdfa_by_delta(d)
        assert view == MNfa(d.states, d.alphabet, [Transition(i, p, a, q) for i, ((p, a), q) in enumerate(want)])
        assert report == validate_pdfa(PDfa(d.states, d.alphabet, dict(d.delta)))
        assert key == hash((d.states, d.alphabet, tuple(want)))
        seen[form] += 1
        seen["self-inverse"] += "c" in d.alphabet
        seen["invalid"] += not report.ok
    assert min(seen.values()) >= 40, seen


def test_listing_a_pdfa_held_as_an_index_decodes_nothing(monkeypatch):
    rng = random.Random(103)
    d, root = random_reduced_pdfa(rng, 12, involutive_closure(["a", "b"]), extra_density=0.5)
    held = [
        automaton_from_doc(automaton_to_doc(d, root=root))[0],
        quotient(d)[0],
        trim(d, root),
        reroot_along_word(d, root, _walk(rng, d, root) or [min(d.out_set(root))])[0],
    ]
    decoded = []
    decode = automata._decode_delta
    monkeypatch.setattr(automata, "_decode_delta", lambda ix: decoded.append(ix) or decode(ix))
    for e in held:
        for call in (automaton_to_doc, export_dot, pdfa_to_mnfa, validate_pdfa, hash):
            call(e)
            assert decoded == [], call.__name__
        assert e._delta is None


def test_equality_of_loaded_pdfas_decodes_nothing(monkeypatch):
    # ``==`` compares the ordered transition listings, so two pDFAs that
    # hold only their indexes stay that way, and every pair compares as the
    # same two pDFAs holding maps do.
    rng = random.Random(107)
    held = []
    for _ in range(8):
        d, _ = random_reduced_pdfa(rng, rng.randint(1, 4), samples.AL_AB)
        fewer = dict(sorted(d.delta.items())[1:])
        held += [d, PDfa(d.states, d.alphabet, fewer), PDfa(d.states, involutive_closure(["a", "b", "c"]), d.delta)]
    loaded = [automaton_from_doc(automaton_to_doc(d))[0] for d in held]
    twice = [automaton_from_doc(automaton_to_doc(d))[0] for d in held]
    decoded = []
    decode = automata._decode_delta
    monkeypatch.setattr(automata, "_decode_delta", lambda ix: decoded.append(ix) or decode(ix))
    for x, dx in zip(loaded, held):
        for y, dy in zip(twice, held):
            assert (x == y) == (dx == dy) == (x == dy)
    assert decoded == [] and not any(x._delta is not None for x in loaded + twice)
    assert all(x == y for x, y in zip(loaded, twice))


def test_delta_is_a_read_only_view():
    # A write through ``delta`` would leave the index and the reducedness
    # verdict describing other transitions than the map.
    d = PDfa({"p", "q"}, samples.AL_A, {("p", "a"): "q"})
    loaded = automaton_from_doc(automaton_to_doc(d))[0]
    for e in (d, loaded):
        assert is_reduced(e)
        with pytest.raises(TypeError):
            e.delta[("q", "a^-1")] = "p"
        with pytest.raises(TypeError):
            del e.delta[("p", "a")]
        fresh = PDfa(e.states, e.alphabet, dict(e.delta))
        assert e == fresh and is_reduced(e) == is_reduced(fresh)
        assert type(e._delta) is dict


def test_pdfas_pickle_and_deep_copy_in_either_form():
    d = samples.astar_bstar_pdfa()
    loaded = automaton_from_doc(automaton_to_doc(d))[0]
    for e in (d, loaded):
        assert is_reduced(e)
        twins = [pickle.loads(pickle.dumps(e)), copy.deepcopy(e)]
        assert [twin._delta is None for twin in twins] == [e is loaded] * 2
        for twin in twins:
            assert twin == e and hash(twin) == hash(e) and is_reduced(twin)


def test_transition_is_an_immutable_value_equal_only_to_transitions():
    t = Transition(3, "p", "a", "q")
    plain = (3, "p", "a", "q")
    assert (t.tid, t.src, t.label, t.dst) == plain
    assert Transition(tid=3, src="p", label="a", dst="q") == t and t.triple() == ("p", "a", "q")
    assert repr(t) == "Transition(tid=3, src='p', label='a', dst='q')"
    # Equal only to a transition with the same fields, from either side.
    assert t != plain and plain != t and not t == plain and not plain == t
    assert t != Transition(4, "p", "a", "q") and not t == Transition(4, "p", "a", "q")
    assert [t] != [plain] and plain not in {t} and t in {Transition(3, "p", "a", "q")}
    assert t != "x" and t is not None and t != None  # noqa: E711
    # Hashed as the tuple of its fields.
    assert hash(t) == hash(Transition(3, "p", "a", "q")) == hash(plain)
    assert len({t, Transition(3, "p", "a", "q"), Transition(4, "p", "a", "q")}) == 2
    for field in ("tid", "src", "label", "dst", "other"):
        with pytest.raises(AttributeError):
            setattr(t, field, 0)
    with pytest.raises(AttributeError):
        del t.src
    assert t == Transition(3, "p", "a", "q")
    assert copy.deepcopy(t) == t and pickle.loads(pickle.dumps(t)) == t


def test_value_types_show_their_sizes_and_equal_no_other_type():
    al = involutive_closure(["b", "a"])
    m = samples.one_state_two_loops()
    for value, shown in (
        (al, "InvolutiveAlphabet(['a', 'a^-1', 'b', 'b^-1'])"),
        (m, "MNfa(states=1, transitions=2)"),
        (samples.ray(), "PDfa(states=1, transitions=1)"),
        (unfold_pdfa(samples.ray(), "u", 3), "DiscTree(radius=3, nodes=4)"),
    ):
        assert repr(value) == shown
        assert value.__eq__(1) is NotImplemented
        assert value != 1 and not value == 1 and 1 != value
    assert list(al) == ["a", "a^-1", "b", "b^-1"]
    twin = MNfa({"p"}, m.alphabet, reversed(m.transitions))  # held in id order
    assert twin == m and hash(twin) == hash(m) and len({m, twin}) == 1
    assert MNfa({"p", "q"}, m.alphabet, m.transitions) != m


def test_index_over_a_larger_alphabet_matches_a_fresh_build():
    # Own columns are kept, absent letters read nothing, and mask bits
    # follow the larger alphabet's numbering, for pDFAs built from a
    # map and for ones loaded into their index.
    c = InvolutiveAlphabet({"c"}, {"c": "c"})
    alphabets = [
        involutive_closure(["a"]),
        involutive_closure(["b"]),
        involutive_closure(["a", "b"]),
        involutive_closure(["b", "d"]),
        c,
        merge_alphabets(involutive_closure(["a"]), c),
    ]
    rng = random.Random(61)
    renumbered = 0
    for _ in range(200):
        small = rng.choice(alphabets)
        large = merge_alphabets(small, rng.choice(alphabets))
        d, _ = random_pdfa(rng, rng.randint(1, 8), small, density=rng.random())
        loaded, _ = automaton_from_doc(automaton_to_doc(d))
        for form in (d, loaded):
            names = form._indexed().names
            assert form._indexed(large) == _build_index(names, large, d.delta)
        renumbered += small.sorted_letters() != large.sorted_letters()[: len(small)]
    assert renumbered >= 50
