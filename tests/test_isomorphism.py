import random
from collections import Counter

import pytest

import samples
from cftree import (
    Gap2Instance,
    InvolutiveAlphabet,
    NonRootedWitness,
    NotReducedError,
    PDfa,
    UnknownLetterError,
    UnknownStateError,
    automata,
    gap2_has_path,
    involutive_closure,
    iso_nonrooted,
    iso_rooted,
    isomorphism,
    language_classes,
    quotient,
    reachable_states,
    reduce_gap2_to_rooted_iso,
    reduce_rooted_to_nonrooted,
    reroot_along_word,
    trim,
    unfold_pdfa,
    verify_nonrooted_witness,
)
from oracles import (
    canonical_rooted_key,
    equivalent_pairs,
    iso_nonrooted_by_names,
    iso_nonrooted_by_union,
    iso_rooted_reindexed,
    language_classes_by_names,
    language_upto,
    langs_equal_upto,
    nonrooted_witness_brute,
    quotient_by_names,
)
from randgen import exhaustive_reduced_pdfa_pool, random_gap2, random_pdfa, random_reduced_pdfa


def class_pairs(a: PDfa, b: PDfa) -> set[tuple[str, str]]:
    """The pairs of states that ``language_classes`` puts in one class."""
    ca, cb = language_classes(a, b)
    return {(p, q) for p in a.states for q in b.states if ca[p] == cb[q]}


def partition(classes: list[dict[str, int]]) -> set[frozenset[tuple[int, str]]]:
    """The blocks of a ``language_classes`` result, as sets of (automaton, state)."""
    blocks: dict[int, set[tuple[int, str]]] = {}
    for i, cls in enumerate(classes):
        for p, c in cls.items():
            blocks.setdefault(c, set()).add((i, p))
    return {frozenset(b) for b in blocks.values()}


def test_language_classes_astar_bstar_with_itself():
    d = samples.astar_bstar_pdfa()
    assert class_pairs(d, d) == {("p", "p"), ("q", "q")}


def test_language_classes_identical_loops():
    al = involutive_closure(["a"])
    s = PDfa({"s"}, al, {("s", "a"): "s"})
    t = PDfa({"t"}, al, {("t", "a"): "t"})
    assert class_pairs(s, t) == {("s", "t")}


def test_language_classes_ray_vs_dead_state():
    al = involutive_closure(["a"])
    dead = PDfa({"z"}, al, {})
    assert len(class_pairs(samples.ray(), dead)) == 0


def test_language_classes_of_no_automata_is_empty():
    # One map for each automaton given, so none for none.
    assert language_classes() == []


def test_language_classes_closure_property():
    rng = random.Random(19)
    for _ in range(20):
        a, _ = random_reduced_pdfa(rng, rng.randint(1, 4))
        b, _ = random_reduced_pdfa(rng, rng.randint(1, 4))
        table = class_pairs(a, b)
        for p, q in table:
            assert a.out_set(p) == b.out_set(q)
            for x in a.out_set(p):
                assert (a.delta[(p, x)], b.delta[(q, x)]) in table


def test_language_classes_match_pair_marking_oracle():
    rng = random.Random(31)
    al = involutive_closure(["a", "b"])
    pairs = []
    for _ in range(60):
        a, _ = random_reduced_pdfa(rng, rng.randint(1, 30), al, extra_density=rng.random())
        b, _ = random_reduced_pdfa(rng, rng.randint(1, 30), al, extra_density=rng.random())
        pairs += [(a, b), (a, a)]
    for _ in range(40):
        a, _ = random_pdfa(rng, rng.randint(1, 12))
        b, _ = random_pdfa(rng, rng.randint(1, 12), a.alphabet)
        pairs += [(a, b), (b, b)]
    # One-letter functional graphs split into long chains of blocks; they
    # expose a waiting block that splits and queues only one of its halves.
    al_a = involutive_closure(["a"])
    for _ in range(600):
        a, _ = random_pdfa(rng, rng.randint(1, 20), al_a, density=rng.random())
        pairs.append((a, a))
    pool = exhaustive_reduced_pdfa_pool(2)
    pairs += [(d, pool[(i * 37) % len(pool)]) for i, d in enumerate(pool)]
    pairs += [(d, d) for d in pool]
    # Mixed alphabets, {b}^±1 against {a, b}^±1 and {c} against {a, a^-1, c}
    # with c self-inverse; a copy of the smaller side typed over the larger
    # alphabet gives classes that cross the pair.
    for small, large in (
        (involutive_closure(["b"]), al),
        (
            InvolutiveAlphabet({"c"}, {"c": "c"}),
            InvolutiveAlphabet({"a", "a^-1", "c"}, {"a": "a^-1", "a^-1": "a", "c": "c"}),
        ),
    ):
        for _ in range(30):
            a, _ = random_reduced_pdfa(rng, rng.randint(1, 20), small, extra_density=rng.random())
            b, _ = random_reduced_pdfa(rng, rng.randint(1, 20), large, extra_density=rng.random())
            pairs += [(a, b), (b, a), (a, PDfa(a.states, large, a.delta))]
    for a, b in pairs:
        assert class_pairs(a, b) == equivalent_pairs(a, b)
        assert partition(language_classes(a, b)) == partition(language_classes_by_names(a, b))
    for a, _ in pairs:
        (c,) = language_classes(a)
        assert {(p, q) for p in a.states for q in a.states if c[p] == c[q]} == equivalent_pairs(a, a)
        assert partition([c]) == partition(language_classes_by_names(a))


def test_language_classes_long_path_matches_oracle():
    # On the path a^n each split peels one state off a block, the worst case
    # for round-based refinement.  The oracle is quadratic, so it checks the
    # long path against a short one.
    def path(n: int, name: str) -> PDfa:
        return PDfa(
            [f"{name}{i}" for i in range(n + 1)],
            involutive_closure(["a"]),
            {(f"{name}{i}", "a"): f"{name}{i + 1}" for i in range(n)},
        )

    long, short = path(2000, "s"), path(40, "t")
    assert class_pairs(long, short) == equivalent_pairs(long, short)
    (c,) = language_classes(long)
    assert len(set(c.values())) == 2001


def test_iso_rooted_reflexive():
    d = samples.astar_bstar_pdfa()
    ok, witness = iso_rooted(d, "p", d, "p")
    assert ok and witness is None


def test_iso_rooted_p_vs_q_with_witness():
    d = samples.astar_bstar_pdfa()
    ok, witness = iso_rooted(d, "p", d, "q")
    assert not ok
    assert witness.word == ("a",)
    assert witness.side == "left"


def test_iso_rooted_ray_vs_interior():
    ok, witness = iso_rooted(samples.ray(), "u", samples.ray_from_interior(), "r")
    assert not ok
    assert witness.word == ("a^-1",)
    assert witness.side == "right"


def test_iso_rooted_rejects_non_reduced():
    d = samples.loop_both_directions()
    with pytest.raises(NotReducedError):
        iso_rooted(d, "p", d, "p")


def test_iso_rooted_agrees_with_language_oracle():
    rng = random.Random(23)
    for _ in range(150):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 4))
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 4))
        k = len(a.states) * len(b.states)
        ok, witness = iso_rooted(a, ra, b, rb)
        assert ok == langs_equal_upto(a, ra, b, rb, k)
        if not ok:
            assert len(witness.word) <= k


def test_iso_rooted_builds_one_index_per_automaton(monkeypatch):
    builds = Counter()
    build_index = automata._build_index

    def counted_build(names, alphabet, delta):
        builds[id(delta)] += 1
        return build_index(names, alphabet, delta)

    out_set_calls = Counter()
    out_set = PDfa.out_set

    def counted_out_set(self, p):
        out_set_calls[p] += 1
        return out_set(self, p)

    monkeypatch.setattr(automata, "_build_index", counted_build)
    monkeypatch.setattr(PDfa, "out_set", counted_out_set)
    a, ra, b, rb = reduce_gap2_to_rooted_iso(random_gap2(random.Random(43), max_n=64))
    iso_rooted(a, ra, b, rb)
    iso_rooted(b, rb, a, ra)
    language_classes(a, b)
    assert builds == {id(a._delta): 1, id(b._delta): 1}
    assert not out_set_calls


def test_iso_rooted_matches_reindexing_oracle():
    rng = random.Random(47)
    # {b}^±1 is not a prefix of {a, b}^±1 in sorted order, so its letter ids
    # must be translated.
    alphabets = [samples.AL_A, involutive_closure(["b"]), samples.AL_AB]
    kinds = Counter()
    for i in range(100):
        if i % 2:
            a, ra, b, rb = reduce_gap2_to_rooted_iso(random_gap2(rng, max_n=48))
        elif i % 4:
            a, ra = random_reduced_pdfa(rng, rng.randint(1, 12), rng.choice(alphabets))
            b, rb = random_reduced_pdfa(rng, rng.randint(1, 12), rng.choice(alphabets))
        else:  # one side over {b}^±1, the other the same or a similar one over {a, b}^±1
            a, ra = random_reduced_pdfa(rng, rng.randint(1, 12), alphabets[1])
            c, rb = (a, ra) if i % 8 else random_reduced_pdfa(rng, len(a.states), alphabets[1])
            b = PDfa(c.states, samples.AL_AB, c.delta)
        result = iso_rooted(a, ra, b, rb)
        assert result == iso_rooted_reindexed(a, ra, b, rb)
        kinds[result[0], a.alphabet == b.alphabet] += 1
    assert kinds[True, True] >= 10 and kinds[False, True] >= 10
    assert kinds[True, False] >= 10 and kinds[False, False] >= 10


def _renamed(rng, d: PDfa, root: str) -> tuple[PDfa, str]:
    new = [f"r{i}" for i in range(len(d.states))]
    rng.shuffle(new)
    name = dict(zip(sorted(d.states), new))
    return PDfa(new, d.alphabet, {(name[p], x): name[q] for (p, x), q in d.delta.items()}), name[root]


def _walk(d: PDfa, root: str, choices) -> tuple[str, ...]:
    """The word that takes, at each step, the first of ``choices`` readable there."""
    word, state = [], root
    for options in choices:
        x = next((x for x in options if (state, x) in d.delta), None)
        if x is None:
            break
        word.append(x)
        state = d.delta[(state, x)]
    return tuple(word)


def _rerooted(rng, d: PDfa, root: str) -> tuple[PDfa, str]:
    letters = d.alphabet.sorted_letters()
    word = _walk(d, root, [rng.sample(letters, len(letters)) for _ in range(12)])
    return _renamed(rng, *reroot_along_word(d, root, word))


def _lifted_gap2(rng, planted: bool):
    g = random_gap2(rng, max_n=24)
    if planted:
        chain = [0, *rng.sample(range(1, g.n - 1), min(3, g.n - 2)), g.n - 1]
        edges = {e for e in g.edges if e[0] not in chain[:-1]} | set(zip(chain, chain[1:]))
        g = Gap2Instance(g.n, frozenset(edges))
    assert gap2_has_path(g) or not planted
    return reduce_rooted_to_nonrooted(*reduce_gap2_to_rooted_iso(g))


def _periodic_line(rng, period: int, j: int) -> tuple[PDfa, str]:
    """The bi-infinite a-line whose nodes of type 0 mod ``period`` carry a
    b-leaf, rooted at a node of type ``j``, with shuffled state names.

    Rooted at type ``period / 2``, it matches the one rooted at type 0 at two
    nodes of equal depth, so the witness depends on the search order."""
    delta = {("R", "a"): f"F{(j + 1) % period}", ("R", "a^-1"): f"B{(j - 1) % period}"}
    for k in range(period):
        delta[(f"F{k}", "a")] = f"F{(k + 1) % period}"
        delta[(f"B{k}", "a^-1")] = f"B{(k - 1) % period}"
    for p in ("F0", "B0", "R") if j == 0 else ("F0", "B0"):
        delta[(p, "b")] = "L"
    return _renamed(rng, PDfa({p for p, _ in delta} | set(delta.values()), samples.AL_AB, delta), "R")


def test_iso_nonrooted_matches_by_names_oracle():
    rng = random.Random(61)
    al_b = involutive_closure(["b"])
    self_inverse = [
        InvolutiveAlphabet({"c"}, {"c": "c"}),
        InvolutiveAlphabet({"a", "a^-1", "c"}, {"a": "a^-1", "a^-1": "a", "c": "c"}),
    ]
    kinds = Counter()
    for i in range(400):
        kind = ("renamed", "rerooted", "independent", "b-vs-ab", "self-inverse", "gap2", "gap2-path", "periodic")[i % 8]
        if kind in ("gap2", "gap2-path"):
            a, ra, b, rb = _lifted_gap2(rng, kind == "gap2-path")
        elif kind == "periodic":
            period = rng.choice([2, 3, 4, 6])
            a, ra = _periodic_line(rng, period, rng.randrange(period))
            b, rb = _periodic_line(rng, period, 0)
        else:
            alphabet = {"b-vs-ab": al_b, "self-inverse": rng.choice(self_inverse)}.get(kind)
            a, ra = random_reduced_pdfa(rng, rng.randint(1, 14), alphabet, extra_density=rng.random())
            # A root other than the first state leaves states unreachable.
            ra = rng.choice(sorted(a.states)) if i % 3 == 0 else ra
            if kind == "renamed":
                b, rb = _renamed(rng, a, ra)
            elif kind == "independent" or kind != "rerooted" and i // 8 % 2:
                b, rb = random_reduced_pdfa(rng, rng.randint(1, 14), a.alphabet)
            else:
                b, rb = _rerooted(rng, a, ra)
            if kind == "b-vs-ab":
                b = PDfa(b.states, samples.AL_AB, b.delta)
        for x, rx, y, ry in ((a, ra, b, rb), (b, rb, a, ra)):
            result = iso_nonrooted(x, rx, y, ry)
            assert result == iso_nonrooted_by_names(x, rx, y, ry)
            kinds[kind, result[0]] += 1
    # A path in a 2GAP instance makes the reduced pair rooted non-isomorphic.
    for kind in ("renamed", "rerooted", "b-vs-ab", "self-inverse", "gap2", "periodic"):
        assert kinds[kind, True] >= 10, kind
    for kind in ("independent", "b-vs-ab", "self-inverse", "gap2-path"):
        assert kinds[kind, False] >= 10, kind


def _with_ghost(rng, d: PDfa) -> PDfa:
    """``d`` plus a transition into one of its states from a state it does
    not list, on a letter that keeps it reduced; ``d`` if there is none."""
    q = rng.choice(sorted(d.states))
    free = [x for x in d.alphabet.sorted_letters() if (q, d.alphabet.inv(x)) not in d.delta]
    return PDfa(d.states, d.alphabet, {**d.delta, ("ghost", rng.choice(free)): q}) if free else d


def test_iso_nonrooted_matches_union_oracle():
    # Verdicts and witness words equal those of the search on a fresh union;
    # the same automata's classes and quotients match the name-based oracles.
    rng = random.Random(71)
    al_b = involutive_closure(["b"])
    kinds = Counter()
    for i in range(520):
        kind = ("unreachable", "ghost", "b-vs-ab", "same-object", "alternating", "lifted", "rerooted", "independent")[i % 8]
        if kind == "lifted":
            a, ra, b, rb = _lifted_gap2(rng, i // 8 % 2 == 0)
        else:
            a, ra = random_reduced_pdfa(rng, rng.randint(1, 14), al_b if kind == "b-vs-ab" else None, extra_density=rng.random())
            if kind in ("unreachable", "ghost", "alternating"):
                ra = rng.choice(sorted(a.states))  # may leave part of a unreachable
            if kind == "independent" or kind == "b-vs-ab" and i // 8 % 2:
                b, rb = random_reduced_pdfa(rng, rng.randint(1, 14), a.alphabet, extra_density=rng.random())
            else:
                b, rb = _rerooted(rng, a, ra)
            if kind == "b-vs-ab":
                b = PDfa(b.states, samples.AL_AB, b.delta)
            elif kind == "ghost":
                a, b = _with_ghost(rng, a), _with_ghost(rng, b)
            elif kind == "unreachable":  # and a copy of a that rb cannot reach
                spare = {(f"u{p}", x): f"u{q}" for (p, x), q in a.delta.items()}
                b = PDfa(b.states | {f"u{p}" for p in a.states}, b.alphabet, {**b.delta, **spare})
        pairs = [(a, ra, b, rb), (b, rb, a, ra)]
        if kind == "same-object":
            pairs = [(a, ra, a, ra), (a, ra, a, rng.choice(sorted(a.states)))]
        elif kind == "alternating":  # two roots in turn on one object
            other = rng.choice(sorted(a.states))
            pairs += [(a, other, b, rb), (a, ra, b, rb), (b, rb, a, other), (b, rb, a, ra)]
        for x, rx, y, ry in pairs:
            result = iso_nonrooted(x, rx, y, ry)
            assert result == iso_nonrooted_by_union(x, rx, y, ry)
            kinds[kind, result[0]] += 1
            kinds["part unreachable"] += len(reachable_states(y, ry)) < len(y.states)
        for d in (a, b):
            if {p for p, _ in d.delta} <= d.states:
                assert quotient(d) == quotient_by_names(d)
                assert partition(language_classes(d)) == partition(language_classes_by_names(d))
            else:
                kinds["ghost", "source"] += 1
                with pytest.raises(UnknownStateError, match="'ghost'"):
                    quotient(d)
        if kind != "ghost":
            assert partition(language_classes(a, b)) == partition(language_classes_by_names(a, b))
    for kind in ("unreachable", "ghost", "b-vs-ab", "same-object", "alternating", "lifted", "rerooted"):
        assert kinds[kind, True] >= 10, kind
    for kind in ("b-vs-ab", "same-object", "alternating", "lifted", "independent"):
        assert kinds[kind, False] >= 10, kind
    assert kinds["part unreachable"] >= 100 and kinds["ghost", "source"] >= 50


def test_iso_nonrooted_builds_one_index_per_automaton(monkeypatch):
    # A re-rooted copy with a state left unreachable, as trim would drop.
    d, root = random_reduced_pdfa(random.Random(67), 60, samples.AL_AB)
    e, re_ = reroot_along_word(d, root, _walk(d, root, ["ab", "ba", "ab"]))
    e = PDfa(e.states | {"spare"}, e.alphabet, e.delta)
    builds = Counter()
    build_index = automata._build_index

    def counted_build(names, alphabet, delta):
        builds[id(delta)] += 1
        return build_index(names, alphabet, delta)

    calls = Counter()

    def forbidden(name):
        return lambda *args: calls.update([name])

    monkeypatch.setattr(automata, "_build_index", counted_build)
    monkeypatch.setattr(PDfa, "out_set", forbidden("out_set"))
    for module in (automata, isomorphism):
        for name in ("trim", "reachable_states"):
            monkeypatch.setattr(module, name, forbidden(name), raising=False)
    # Fresh objects for each order, so each order builds its own indexes.
    for swap in (False, True):
        a, b = PDfa(d.states, d.alphabet, d.delta), PDfa(e.states, e.alphabet, e.delta)
        pairs = [(a, root, b, re_), (b, re_, a, root)]
        builds.clear()
        for x, rx, y, ry in pairs[::-1] if swap else pairs:
            assert iso_nonrooted(x, rx, y, ry)[0]
        assert builds == {id(a._delta): 1, id(b._delta): 1}
        assert not calls


def _count(monkeypatch, *names):
    """Count the calls of the named ``automata`` builders, which still run,
    by the index each one was given."""
    calls = Counter()
    for name in names:
        fn = getattr(automata, name)
        monkeypatch.setattr(automata, name, lambda ix, *rest, fn=fn, name=name: calls.update([(name, id(ix))]) or fn(ix, *rest))
    return calls


def test_iso_nonrooted_keeps_predecessors_and_reach(monkeypatch):
    # The first call builds each side's predecessor form and walks from each
    # root; a second call on the pair, the state equivalence and the
    # quotient of either side build and walk nothing more.
    d, root = random_reduced_pdfa(random.Random(73), 60, samples.AL_AB)
    e, re_ = _rerooted(random.Random(79), d, root)
    d = PDfa(d.states, d.alphabet, d.delta)  # a fresh copy: re-rooting walked d
    calls = _count(monkeypatch, "_build_predecessors", "_walk")
    first = iso_nonrooted(d, root, e, re_)
    assert first[0]
    ids = {id(d._index), id(e._index)}
    assert calls == {(name, i): 1 for name in ("_build_predecessors", "_walk") for i in ids}
    calls.clear()
    assert iso_nonrooted(d, root, e, re_) == first
    language_classes(d, e)
    quotient(d)
    quotient(e)
    assert not calls


def test_merged_alphabet_side_keeps_no_predecessor_form(monkeypatch):
    # Over {b}^±1 and {a, b}^±1 the letter ids differ, so the smaller side's
    # form is built for each call, on either side, and kept nowhere.
    a, ra = random_reduced_pdfa(random.Random(83), 30, involutive_closure(["b"]))
    b = PDfa(a.states, samples.AL_AB, a.delta)
    calls = _count(monkeypatch, "_build_predecessors")
    # b's own form is built once; a's widened one on every call.
    for x, y, builds in ((a, b, 2), (b, a, 1), (a, b, 1)):
        calls.clear()
        assert iso_nonrooted(x, ra, y, ra) == (True, NonRootedWitness(()))
        assert sum(calls.values()) == builds
    assert a._preds is None and b._preds is not None
    calls.clear()
    language_classes(a, b)
    assert sum(calls.values()) == 1


def test_cached_reach_is_only_read(monkeypatch):
    # Every reader of the kept reach list leaves it as it was, and none of
    # them walks the automaton again.  A state only a transition names makes
    # ``iso_rooted`` read it as well.
    d, root = random_reduced_pdfa(random.Random(89), 40, samples.AL_AB)
    d = PDfa(d.states | {"spare"}, d.alphabet, {**d.delta, ("ghost", "a"): "spare"})
    reach = automata._reach(d, root)
    kept = list(reach)
    calls = _count(monkeypatch, "_walk")
    trim(d, root)
    reroot_along_word(d, root, _walk(d, root, ["ab", "ba", "ab", "ba"]))
    assert len(reachable_states(d, root)) == len(kept) < len(d.states)
    iso_rooted(d, root, d, root)
    iso_nonrooted(d, root, d, root)
    assert d._reached == (root, kept) and d._reached[1] is reach
    assert not calls[("_walk", id(d._index))]


def test_witness_is_shortest_and_one_sided():
    rng = random.Random(29)
    for _ in range(150):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 4))
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 4))
        ok, witness = iso_rooted(a, ra, b, rb)
        if ok:
            continue
        in_a = a.run(ra, witness.word) is not None
        in_b = b.run(rb, witness.word) is not None
        assert in_a != in_b
        assert (witness.side == "left") == in_a
        # No separating word exists below the witness length.
        assert langs_equal_upto(a, ra, b, rb, len(witness.word) - 1)


def test_iso_nonrooted_reflexive():
    d = samples.astar_bstar_pdfa()
    ok, witness = iso_nonrooted(d, "p", d, "p")
    assert ok and witness.word == ()


def test_iso_nonrooted_ray_vs_interior_both_ways():
    ray, interior = samples.ray(), samples.ray_from_interior()
    ok, witness = iso_nonrooted(ray, "u", interior, "r")
    assert ok and witness.word == ("a^-1",)
    ok, witness = iso_nonrooted(interior, "r", ray, "u")
    assert ok and witness.word == ("a",)


def test_iso_nonrooted_ray_vs_line_false():
    ok, witness = iso_nonrooted(samples.ray(), "u", samples.bi_infinite_line(), "v")
    assert not ok and witness is None


def test_verify_nonrooted_witness_examples():
    ray, interior = samples.ray(), samples.ray_from_interior()
    assert verify_nonrooted_witness(ray, "u", interior, "r", ("a^-1",))
    d = samples.astar_bstar_pdfa()
    assert verify_nonrooted_witness(d, "p", d, "p", ())
    assert not verify_nonrooted_witness(ray, "u", ray, "u", ("a",))


def test_verify_rejects_word_outside_language():
    from cftree import WordNotInLanguageError

    with pytest.raises(WordNotInLanguageError):
        verify_nonrooted_witness(samples.ray(), "u", samples.ray(), "u", ("a^-1",))


def test_iso_nonrooted_symmetry_and_rooted_implies_nonrooted():
    rng = random.Random(37)
    for _ in range(60):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 3))
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 3))
        fwd, _ = iso_nonrooted(a, ra, b, rb)
        bwd, _ = iso_nonrooted(b, rb, a, ra)
        assert fwd == bwd
        rooted, _ = iso_rooted(a, ra, b, rb)
        if rooted:
            assert fwd


def test_iso_nonrooted_witness_verifies():
    rng = random.Random(43)
    hits = 0
    for _ in range(80):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 3))
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 3))
        ok, witness = iso_nonrooted(a, ra, b, rb)
        if ok:
            assert verify_nonrooted_witness(a, ra, b, rb, witness.word)
            hits += 1
    assert hits >= 5


def test_iso_nonrooted_agrees_with_node_enumeration():
    rng = random.Random(47)
    for _ in range(40):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 3))
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 3))
        bound = 2 * len(a.states) * len(b.states) * (len(a.alphabet.letters | b.alphabet.letters) + 1)
        ok, witness = iso_nonrooted(a, ra, b, rb)
        brute = nonrooted_witness_brute(a, ra, b, rb, bound)
        assert ok == (brute is not None)
        if ok:
            assert len(witness.word) == len(brute)


def test_canonical_key_matches_iso_rooted():
    rng = random.Random(53)
    for _ in range(60):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 3))
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 3))
        ok, _ = iso_rooted(a, ra, b, rb)
        assert ok == (canonical_rooted_key(a, ra) == canonical_rooted_key(b, rb))


def test_table_semantics_names_existing_nodes():
    # A returned witness names a real node of the second tree: the word is
    # readable from the designated state.
    rng = random.Random(59)
    for _ in range(40):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 3))
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 3))
        ok, witness = iso_nonrooted(a, ra, b, rb)
        if ok:
            assert witness.word in language_upto(b, rb, len(witness.word))


UNKNOWN_LETTER_CALLS = {
    "out_set": lambda bad, good: bad.out_set("p"),
    "run": lambda bad, good: bad.run("p", ("a",)),
    "trim": lambda bad, good: trim(bad, "p"),
    "unfold_pdfa": lambda bad, good: unfold_pdfa(bad, "p", 2),
    "classes-bad": lambda bad, good: language_classes(bad),
    "classes-bad-good": lambda bad, good: language_classes(bad, good),
    "classes-good-bad": lambda bad, good: language_classes(good, bad),
    "rooted-bad-good": lambda bad, good: iso_rooted(bad, "p", good, "s"),
    "rooted-good-bad": lambda bad, good: iso_rooted(good, "s", bad, "p"),
    "nonrooted-bad-good": lambda bad, good: iso_nonrooted(bad, "p", good, "s"),
    "nonrooted-good-bad": lambda bad, good: iso_nonrooted(good, "s", bad, "p"),
}


@pytest.mark.parametrize("name", sorted(UNKNOWN_LETTER_CALLS))
def test_unknown_letter_raises(name):
    # ``bad`` reads b, which its own alphabet {a}^±1 lacks.  Over the merged
    # alphabet {a, b}^±1 of a pair with ``good`` it would look well formed,
    # so the check must run on its own alphabet first.
    bad = PDfa({"p", "q"}, samples.AL_A, {("p", "a"): "q", ("q", "b"): "q"})
    good = PDfa({"s", "t"}, samples.AL_AB, {("s", "a"): "t", ("t", "b"): "t"})
    with pytest.raises(UnknownLetterError):
        UNKNOWN_LETTER_CALLS[name](bad, good)


def test_states_only_transitions_name_raise_as_in_trim():
    # ``zz`` is read from the root but not listed: every decision and the
    # state equivalence raise, on either side of a pair.
    dangling = PDfa({"p"}, samples.AL_A, {("p", "a"): "zz"})
    good = PDfa({"s"}, samples.AL_A, {})
    calls = [
        lambda: iso_rooted(dangling, "p", dangling, "p"),
        lambda: iso_rooted(good, "s", dangling, "p"),
        lambda: iso_nonrooted(dangling, "p", good, "s"),
        lambda: language_classes(dangling),
        lambda: language_classes(good, dangling),
        lambda: trim(dangling, "p"),
    ]
    for call in calls:
        with pytest.raises(UnknownStateError, match="'zz'"):
            call()
    # A state only transitions name that the root cannot reach still gives
    # a verdict, as ``trim`` keeps it out.
    ghost = PDfa({"p", "q"}, samples.AL_A, {("q", "a"): "zz"})
    assert trim(ghost, "p").states == {"p"}
    assert iso_rooted(ghost, "p", good, "s") == (True, None)
    assert iso_rooted(good, "s", ghost, "p") == (True, None)
    with pytest.raises(UnknownStateError, match="'zz'"):
        iso_rooted(ghost, "q", good, "s")


def test_merged_alphabets_are_handled():
    x = PDfa({"s"}, involutive_closure(["a"]), {("s", "a"): "s"})
    y = PDfa({"t"}, involutive_closure(["b"]), {("t", "b"): "t"})
    ok, witness = iso_rooted(x, "s", y, "t")
    assert not ok and witness.word in {("a",), ("b",)}
    ok, _ = iso_nonrooted(x, "s", y, "t")
    assert not ok
