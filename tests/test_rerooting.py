import random
from collections import Counter

import pytest

import samples
from cftree import (
    InvolutiveAlphabet,
    MNfa,
    PDfa,
    Transition,
    UnknownStateError,
    WordNotInLanguageError,
    as_pdfa,
    automata,
    disc_equal_rooted,
    is_reduced,
    pdfa_to_mnfa,
    reroot_along_word,
    reroot_disc,
    reroot_step,
    rerooting,
    trim,
    truncate,
    unfold_mnfa,
    unfold_pdfa,
)
from cftree.automata import _build_index
from cftree.cli import run
from cftree.compression import quotient
from cftree.jsonio import automaton_from_doc, automaton_to_doc, automaton_to_json
from oracles import language_upto, reroot_along_word_by_delta, reroot_along_word_by_trim, reroot_by_steps
from randgen import random_reduced_pdfa


def test_reroot_step_two_loop_mnfa():
    m = samples.one_state_two_loops()
    out, q_new = reroot_step(m, "p", 0)
    (p_new,) = out.states - m.states - {q_new}
    assert out.states == {"p", p_new, q_new}
    triples = sorted(t.triple() for t in out.transitions)
    assert triples == sorted(
        [
            ("p", "a", "p"),
            ("p", "a", "p"),
            (p_new, "a", "p"),      # copy of the loop that was not crossed
            (q_new, "a^-1", p_new),  # the way back across the crossed edge
            (q_new, "a", "p"),       # copies of both loops at the crossed target
            (q_new, "a", "p"),
        ]
    )


def test_reroot_step_size_counts():
    rng = random.Random(3)
    for _ in range(20):
        d, root = random_reduced_pdfa(rng, rng.randint(1, 4))
        m = pdfa_to_mnfa(d)
        outgoing = m.transitions_from(root)
        if not outgoing:
            continue
        sigma0 = outgoing[0]
        out, _ = reroot_step(m, root, sigma0.tid)
        assert len(out.states) == len(m.states) + 2
        expected = len(m.transitions) + (len(outgoing) - 1) + 1 + len(
            m.transitions_from(sigma0.dst)
        )
        assert len(out.transitions) == expected


def test_reroot_step_requires_root_transition():
    m = samples.astar_bstar_mnfa()
    with pytest.raises(UnknownStateError):
        reroot_step(m, "q", 0)  # transition 0 starts at p, not q
    with pytest.raises(UnknownStateError):
        reroot_step(m, "p", m.max_tid() + 1)
    with pytest.raises(UnknownStateError):
        reroot_step(m, "nowhere", 0)


def test_reroot_step_names_copies_past_unlisted_states():
    # A transition from a state that only transitions name does not become
    # an edge of the copy that would otherwise take its name.
    m = MNfa({"p"}, samples.AL_AB, [Transition(0, "p", "a", "p"), Transition(1, "p@p0", "b", "p")])
    out, q_new = reroot_step(m, "p", 0)
    assert out.states == {"p", "p@p0+", "p@q0"} and q_new == "p@q0"
    assert out.transitions_from("p@p0+") == ()
    assert [t.triple() for t in out.transitions_from(q_new)] == [("p@q0", "a^-1", "p@p0+"), ("p@q0", "a", "p")]


def test_reroot_step_disc_agrees_with_disc_rerooting():
    m = samples.one_state_two_loops()
    out, new_root = reroot_step(m, "p", 0)
    for ell in range(7):
        got = unfold_mnfa(out, new_root, ell)
        want = reroot_disc(unfold_mnfa(m, "p", ell + 1), (0,))
        assert disc_equal_rooted(got, want)


def test_reroot_step_disc_agreement_random():
    rng = random.Random(9)
    for _ in range(15):
        d, root = random_reduced_pdfa(rng, rng.randint(2, 4))
        m = pdfa_to_mnfa(d)
        for sigma0 in m.transitions_from(root)[:2]:
            out, new_root = reroot_step(m, root, sigma0.tid)
            for ell in (0, 2, 4):
                got = unfold_mnfa(out, new_root, ell)
                want = reroot_disc(unfold_mnfa(m, root, ell + 1), (sigma0.tid,))
                assert disc_equal_rooted(got, want)


def test_reroot_along_empty_word():
    d = samples.astar_bstar_pdfa()
    out, state = reroot_along_word(d, "p", ())
    assert state == "p"
    assert out == trim(d, "p")


def test_reroot_along_word_on_line_lands_on_same_tree():
    d = samples.bi_infinite_line()
    out, state = reroot_along_word(d, "v", ("a",))
    x = unfold_pdfa(d, "v", 4)
    y = unfold_pdfa(out, state, 4)
    assert disc_equal_rooted(x, y)


def test_reroot_along_word_on_ray_gains_back_edge():
    d = samples.ray()
    out, state = reroot_along_word(d, "u", ("a",))
    assert sorted(out.out_set(state)) == ["a", "a^-1"]
    assert not disc_equal_rooted(unfold_pdfa(d, "u", 1), unfold_pdfa(out, state, 1))


def test_reroot_along_word_rejects_words_outside_language():
    with pytest.raises(WordNotInLanguageError):
        reroot_along_word(samples.ray(), "u", ("a^-1",))
    # A letter outside the alphabet is not readable either, from a map or
    # from an index.
    loaded = automaton_from_doc(automaton_to_doc(samples.ray()))[0]
    for d in (samples.ray(), loaded):
        with pytest.raises(WordNotInLanguageError, match="a,zz"):
            reroot_along_word(d, "u", ("a", "zz"))


def test_reroot_along_word_rejects_unlisted_states():
    # A state that only a transition names, reachable from the root, is
    # reported as ``trim`` reports it: also when only its copy is reachable
    # from the new root.
    for delta, w in (
        ({("u", "a"): "u", ("u", "b"): "v"}, ("a",)),  # the new root reads b to v
        ({("u", "a"): "v"}, ("a",)),  # v is the last path node
    ):
        d = PDfa({"u"}, samples.AL_AB, delta)
        with pytest.raises(UnknownStateError, match="'v'"):
            trim(d, "u")
        with pytest.raises(UnknownStateError, match="'v'"):
            reroot_along_word(d, "u", w)


def test_reroot_along_word_requires_reduced():
    from cftree import NotReducedError

    with pytest.raises(NotReducedError):
        reroot_along_word(samples.loop_both_directions(), "p", ("a",))


def test_reroot_along_word_matches_disc_rerooting_and_stays_reduced():
    rng = random.Random(31)
    for _ in range(25):
        d, root = random_reduced_pdfa(rng, rng.randint(1, 5))
        words = sorted(wd for wd in language_upto(d, root, 3) if len(wd) <= 3)
        for wd in words[:6]:
            out, state = reroot_along_word(d, root, wd)
            assert is_reduced(out)
            for ell in (0, 3, 5):
                got = unfold_pdfa(out, state, ell)
                want = truncate(reroot_disc(unfold_pdfa(d, root, ell + len(wd)), wd), ell)
                assert disc_equal_rooted(got, want)


def test_reroot_there_and_back():
    # Crossing an edge and then crossing back yields the original tree.
    rng = random.Random(41)
    for _ in range(15):
        d, root = random_reduced_pdfa(rng, rng.randint(1, 4))
        m = pdfa_to_mnfa(d)
        outgoing = m.transitions_from(root)
        if not outgoing:
            continue
        sigma0 = outgoing[0]
        out, new_root = reroot_step(m, root, sigma0.tid)
        (p_new,) = out.states - m.states - {new_root}
        back_label = out.alphabet.inv(sigma0.label)
        tau0p = next(
            t
            for t in out.transitions_from(new_root)
            if t.label == back_label and t.dst == p_new
        )
        out2, new_root2 = reroot_step(out, new_root, tau0p.tid)
        for ell in (0, 2, 4):
            x = unfold_mnfa(m, root, ell)
            y = unfold_mnfa(out2, new_root2, ell)
            assert disc_equal_rooted(x, y)


def test_intermediate_condensation_succeeds():
    # Every step of a word rerooting admits the pDFA view again.
    rng = random.Random(55)
    for _ in range(10):
        d, root = random_reduced_pdfa(rng, rng.randint(2, 5))
        words = sorted(wd for wd in language_upto(d, root, 3) if len(wd) == 3)
        for wd in words[:3]:
            out, state = reroot_along_word(d, root, wd)
            as_pdfa(pdfa_to_mnfa(out))
            assert state in out.states


def _random_walk(rng, d, root, length):
    word, state = [], root
    while len(word) < length and d.out_set(state):
        a = rng.choice(sorted(d.out_set(state)))
        word.append(a)
        state = d.delta[(state, a)]
    return tuple(word)


def test_reroot_along_word_matches_step_oracle():
    rng = random.Random(77)
    longest = 0
    for _ in range(200):
        d, root = random_reduced_pdfa(rng, rng.randint(1, 8), extra_density=rng.choice((0.5, 0.9)))
        for w in ((), _random_walk(rng, d, root, rng.randint(1, 25))):
            assert reroot_along_word(d, root, w) == reroot_by_steps(d, root, w)
            longest = max(longest, len(w))
    assert longest == 25


def _padded(rng, d, root):
    """``d`` beside a 200-state pDFA that ``root`` does not reach, in which a
    listed state reads a letter to a state that only that transition names."""
    pad, _ = random_reduced_pdfa(rng, 200, d.alphabet)
    delta = {("u" + p, x): "u" + q for (p, x), q in pad.delta.items()}
    delta.update(d.delta)
    delta[("g0", d.alphabet.sorted_letters()[0])] = f"{root}@p0"  # also the first copy's name
    return PDfa(d.states | {"u" + p for p in pad.states} | {"g0"}, d.alphabet, delta)


def _total_reduced_pdfa(rng, n):
    """A reduced pDFA of ``n`` states over {a, b}^±1 in which every state
    reads a letter, so that words of any length are readable: silent states
    get a loop that keeps it reduced.  Its root reaches every state."""
    while True:
        d, root = random_reduced_pdfa(rng, n, samples.AL_AB, extra_density=0.9)
        delta = dict(d.delta)
        for p in sorted(d.states - {p for p, _ in delta}):
            into = {x for (_, x), q in delta.items() if q == p}
            for x in samples.AL_AB.sorted_letters():
                if samples.AL_AB.inv(x) not in into:
                    delta[(p, x)] = p
                    break
        if len({p for p, _ in delta}) == len(d.states):
            return PDfa(d.states, d.alphabet, delta), root


def _cycle_word(rng, d, root, length):
    """A readable word of ``length`` letters: a random walk from ``root``
    until a state repeats, then round the cycle it closed."""
    word, seen, cur = [], {root: 0}, root
    while len(word) == len(seen) - 1:
        word.append(rng.choice(sorted(d.out_set(cur))))
        cur = d.delta[(cur, word[-1])]
        seen.setdefault(cur, len(word))
    loop = word[seen[cur]:]
    while len(word) < length:
        word += loop
    return tuple(word[:length])


def test_reroot_along_word_matches_map_oracle(tmp_path, capsys):
    # The oracles add the copies to a copy of the ``delta`` map, and append
    # them to the index restricted to the root's reach, then trim.  Same
    # root, states, map and output bytes as the first, and the same index as
    # the second, so the rows come in the same order.  The index also
    # equals one built fresh from the map oracle's map, so every column and
    # mask bit is checked.  Half the random inputs are loaded from documents
    # and hold only an index, as on the CLI path.  So are half of the
    # 100-400-letter cycle words on 40-state pDFAs, as the benchmark's
    # ``reroot`` documents are.  The padded inputs hold a state that only a
    # transition names, which the root does not reach, named as the first
    # copy is.
    rng = random.Random(12)
    with_c = InvolutiveAlphabet({"a", "A", "c"}, {"a": "A", "A": "a", "c": "c"})  # c is its own inverse
    cases = []
    for i in range(200):
        alphabet = with_c if i % 4 == 3 else None
        d, root = random_reduced_pdfa(rng, rng.randint(1, 12), alphabet, extra_density=rng.choice((0.5, 0.9)))
        w = _random_walk(rng, d, root, rng.randint(0, 25))
        if i % 2:
            d = automaton_from_doc(automaton_to_doc(d))[0]
        cases.append((d, root, w))
    for i in range(20):
        d, root = random_reduced_pdfa(rng, rng.randint(1, 12), samples.AL_AB if i % 2 else with_c)
        cases.append((_padded(rng, d, root), root, _random_walk(rng, d, root, rng.randint(0, 25))))
    for i, k in enumerate((100, 200, 400) * 4):
        d, root = _total_reduced_pdfa(rng, 40)
        w = _cycle_word(rng, d, root, k)
        if i % 2:
            d = automaton_from_doc(automaton_to_doc(d))[0]
        cases.append((d, root, w))
    cases.append((samples.ray(), "u", ("a",) * 2000))
    for d, root, w in cases:
        out, state = reroot_along_word(d, root, w)
        want, want_state = reroot_along_word_by_delta(d, root, w)
        old, old_state = reroot_along_word_by_trim(d, root, w)
        assert out._delta is None
        assert automaton_to_json(out, root=state) == automaton_to_json(want, root=want_state)
        assert automaton_to_json(out, root=state) == automaton_to_json(old, root=old_state)
        assert out._index == old._index == _build_index(out._index.names, out.alphabet, want.delta)
        assert (state, out.states, out.delta) == (want_state, want.states, want.delta)
        assert (state, out.states) == (old_state, old.states)
    assert max(len(w) for _, _, w in cases[:220]) == 25
    assert sorted({len(w) for _, _, w in cases[220:]}) == [100, 200, 400, 2000]
    assert all(len(d._indexed().names) > len(d.states) > 200 for d, _, _ in cases[200:220])
    # ``cftree reroot`` writes the oracle's bytes along the radius-2000 ray.
    ray_doc = tmp_path / "ray.json"
    ray_doc.write_text(automaton_to_json(samples.ray(), root="u"))
    assert run(["reroot", str(ray_doc), "--word", ",".join(("a",) * 2000)]) == 0
    want, want_state = reroot_along_word_by_delta(samples.ray(), "u", ("a",) * 2000)
    assert capsys.readouterr().out == automaton_to_json(want, root=want_state)


def test_reroot_along_long_word_on_ray():
    k = 2000
    out, state = reroot_along_word(samples.ray(), "u", ("a",) * k)
    assert len(out.states) == k + 2
    assert out.run(state, ("a^-1",) * k) is not None
    assert out.run(state, ("a^-1",) * (k + 1)) is None


def test_reroot_along_word_is_one_pass(monkeypatch):
    # One walk from the ends of the copies' out-edges and one restriction
    # of the index build the result: no trim, no other walk and no mNFA
    # or single step on the way.
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for mod in (automata, rerooting):
        for name in ("pdfa_to_mnfa", "as_pdfa", "reroot_step", "trim", "_walk", "_restrict"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    monkeypatch.setattr(MNfa, "__init__", counted("MNfa", MNfa.__init__))
    reroot_along_word(samples.astar_bstar_pdfa(), "p", ("a", "a", "b"))
    assert calls == {"_walk": 1, "_restrict": 1}
    # On a pDFA that holds only its index, as ``quotient`` makes it, the
    # map is never decoded and nothing is indexed again.
    d = quotient(samples.astar_bstar_pdfa())[0]
    for name in ("_decode_delta", "_build_index"):
        monkeypatch.setattr(automata, name, counted(name, getattr(automata, name)))
    calls.clear()
    reroot_along_word(d, "p", ("a", "a", "b"))
    assert calls == {"_walk": 1, "_restrict": 1}
