import random
import time
import tracemalloc
from collections import Counter

import pytest

import nonrooted_sweep
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
    compression,
    gap2_has_path,
    involutive_closure,
    iso_nonrooted,
    iso_rooted,
    isomorphism,
    language_classes,
    merge_alphabets,
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
    classes_from_masks,
    classes_from_one_round_keys,
    classes_from_two_round_keys,
    equivalent_pairs,
    iso_nonrooted_by_names,
    iso_nonrooted_by_states,
    iso_nonrooted_by_union,
    iso_rooted_by_links,
    iso_rooted_reindexed,
    language_classes_by_names,
    language_upto,
    langs_equal_upto,
    nonrooted_witness_brute,
    quotient_by_names,
)
from randgen import (
    exhaustive_reduced_pdfa_pool,
    hub_lines,
    nonrooted_families,
    random_gap2,
    random_pdfa,
    random_reduced_pdfa,
    renamed_pdfa,
    two_tooth_lines,
)


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
        twin = _alphabet_twin(a, b)
        if twin is not None:
            assert iso_rooted(a, ra, twin, rb) == result
            assert iso_rooted(twin, rb, a, ra) == iso_rooted(b, rb, a, ra)
    assert kinds[True, True] >= 10 and kinds[False, True] >= 10
    assert kinds[True, False] >= 10 and kinds[False, False] >= 10


def _doubled(rng, d: PDfa, drop: bool = False) -> PDfa:
    """``d`` with a primed twin of every state, each transition of either
    copy going to a random copy of its target: every state and its twin
    read the same language, and the result is reduced if ``d`` is.  With
    ``drop``, one random transition is then left out."""
    delta = {}
    for (p, x), q in d.delta.items():
        for s in (p, p + "'"):
            delta[(s, x)] = q + rng.choice(("", "'"))
    if drop and delta:
        del delta[rng.choice(sorted(delta))]
    return PDfa(d.states | {p + "'" for p in d.states}, d.alphabet, delta)


def _most_partners(a: PDfa, ra: str, b: PDfa, rb: str) -> int:
    """The most second states met with one first state by a walk of the
    product from the roots that stops at pairs with different out-sets."""
    seen = {(ra, rb)}
    todo = [(ra, rb)]
    for p, q in todo:
        if a.out_set(p) == b.out_set(q):
            for x in a.out_set(p):
                pair = (a.delta[(p, x)], b.delta[(q, x)])
                if pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
    return max(Counter(p for p, _ in seen).values())


def _planted_gap2(rng, n: int, cut: bool) -> Gap2Instance:
    """A 2GAP instance on ``n`` nodes with a path 0 -> ... -> n-1 through
    about half the nodes, less its last edge when ``cut``, and random edges
    between the other nodes up to out-degree two, so that n-1 is reachable
    exactly when not ``cut``."""
    path = [0, *rng.sample(range(1, n - 1), (n - 2) // 2), n - 1]
    edges = set(zip(path, path[1:]))
    if cut:
        edges.discard((path[-2], n - 1))
    out = Counter(u for u, _ in edges)
    for u in range(n):
        for v in (rng.randrange(1, n - 1), rng.randrange(1, n - 1)):
            if out[u] < 2 and (u, v) not in edges:
                edges.add((u, v))
                out[u] += 1
    return Gap2Instance(n, frozenset(edges))


def test_iso_rooted_matches_parent_link_oracle():
    # The search keeps one partner per first state in a list and the rest
    # in a set, and rebuilds the witness without parent links; the search
    # with a parent link per pair must give the same verdict, word and side.
    rng = random.Random(83)
    alphabets = [samples.AL_A, samples.AL_AB, involutive_closure(["a", "b", "c"])]
    self_inverse = InvolutiveAlphabet({"a", "a^-1", "c"}, {"a": "a^-1", "a^-1": "a", "c": "c"})
    cases = []
    for _ in range(150):  # equivalent states: several partners per first state
        d, r = random_reduced_pdfa(rng, rng.randint(1, 12), rng.choice(alphabets), extra_density=rng.random())
        two, cut = _doubled(rng, d), _doubled(rng, d, drop=True)
        twin = r + rng.choice(("", "'"))
        cases += [
            (d, r, two, twin),
            (two, twin, d, r),
            (two, rng.choice(sorted(two.states)), two, rng.choice(sorted(two.states))),
            (d, r, cut, twin),
            (cut, twin, two, r),
        ]
    for _ in range(100):  # one automaton at two of its states
        d, _ = random_reduced_pdfa(rng, rng.randint(1, 20), rng.choice([*alphabets, self_inverse]))
        cases.append((d, rng.choice(sorted(d.states)), d, rng.choice(sorted(d.states))))
    for i in range(40):  # 2GAP reductions, planted and cut
        cases.append(reduce_gap2_to_rooted_iso(_planted_gap2(rng, rng.randint(4, 200), cut=i % 2 == 1)))
    for i in range(80):  # different alphabets: the index of one side is widened
        small, large = [(involutive_closure(["b"]), samples.AL_AB), (InvolutiveAlphabet({"c"}, {"c": "c"}), self_inverse)][i % 2]
        d, r = random_reduced_pdfa(rng, rng.randint(1, 12), small, extra_density=rng.random())
        e = _doubled(rng, PDfa(d.states, large, d.delta), drop=i % 4 > 1)
        cases += [(d, r, e, r + "'"), (e, r, d, r)]
    kinds = Counter()
    for a, ra, b, rb in cases:
        result = iso_rooted(a, ra, b, rb)
        assert result == iso_rooted_by_links(a, ra, b, rb)
        kinds[result[0], "several partners"] += _most_partners(a, ra, b, rb) > 1
        kinds[result[0], "widened"] += a.alphabet != b.alphabet
        if not result[0]:
            kinds["long word"] += len(result[1].word) > 3
    assert kinds[True, "several partners"] >= 100 and kinds[False, "several partners"] >= 100
    assert kinds[True, "widened"] >= 100 and kinds[False, "widened"] >= 30
    assert kinds["long word"] >= 50
    # A reached state that only transitions name raises, as before.
    al = involutive_closure(["a"])
    ghost = PDfa({"p"}, al, {("p", "a"): "g"})
    full = PDfa({"p", "q"}, al, {("p", "a"): "q"})
    for args in ((ghost, "p", full, "p"), (full, "p", ghost, "p")):
        with pytest.raises(UnknownStateError) as new:
            iso_rooted(*args)
        with pytest.raises(UnknownStateError) as old:
            iso_rooted_by_links(*args)
        assert str(new.value) == str(old.value) == "state 'g' is not in the automaton"


def _alphabet_twin(x: PDfa, y: PDfa) -> PDfa | None:
    """``y`` over a copy of ``x``'s alphabet if the two are one object,
    over ``x``'s own if they are equal objects, and None if they differ:
    a pair decides the same over one alphabet object and over two equal
    ones."""
    if x.alphabet != y.alphabet:
        return None
    alphabet = x.alphabet
    if alphabet is y.alphabet:
        alphabet = InvolutiveAlphabet(alphabet.letters, alphabet.inverse_map())
    return PDfa(y.states, alphabet, y.delta)


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
    return renamed_pdfa(rng, *reroot_along_word(d, root, word))


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
    return renamed_pdfa(rng, PDfa({p for p, _ in delta} | set(delta.values()), samples.AL_AB, delta), "R")


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
                b, rb = renamed_pdfa(rng, a, ra)
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
    kinds = Counter()
    for a, ra, b, rb in _start_cases(random.Random(62), 320):
        for x, rx, y, ry in ((a, ra, b, rb), (b, rb, a, ra)):
            result = iso_nonrooted(x, rx, y, ry)
            assert result == iso_nonrooted_by_names(x, rx, y, ry)
            _count_start_case(kinds, x, rx, y, ry, result[0])
    _check_start_counts(kinds)


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
            twin = _alphabet_twin(x, y)
            if twin is not None:
                assert iso_nonrooted(x, rx, twin, ry) == result
                kinds["twin"] += 1
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
            twin = _alphabet_twin(a, b)
            if twin is not None:
                assert partition(language_classes(a, twin)) == partition(language_classes(a, b))
    assert kinds["twin"] >= 100
    for kind in ("unreachable", "ghost", "b-vs-ab", "same-object", "alternating", "lifted", "rerooted"):
        assert kinds[kind, True] >= 10, kind
    for kind in ("b-vs-ab", "same-object", "alternating", "lifted", "independent"):
        assert kinds[kind, False] >= 10, kind
    assert kinds["part unreachable"] >= 100 and kinds["ghost", "source"] >= 50
    kinds = Counter()
    for a, ra, b, rb in _start_cases(random.Random(72), 320):
        for x, rx, y, ry in ((a, ra, b, rb), (b, rb, a, ra)):
            result = iso_nonrooted(x, rx, y, ry)
            assert result == iso_nonrooted_by_union(x, rx, y, ry)
            _count_start_case(kinds, x, rx, y, ry, result[0])
    _check_start_counts(kinds)


def _split(rng, d: PDfa, root: str) -> tuple[PDfa, str]:
    """``d`` with each state doubled into ``p#0`` and ``p#1``, each copy's
    transitions going to a random copy of the target: every copy reads its
    original's language, so each class has two or more members."""
    delta = {(f"{p}#{c}", x): f"{q}#{rng.randrange(2)}" for (p, x), q in d.delta.items() for c in range(2)}
    return PDfa({f"{p}#{c}" for p in d.states for c in range(2)}, d.alphabet, delta), f"{root}#{rng.randrange(2)}"


def _start_cases(rng, count: int, split_lines: bool = False):
    """``count`` pairs ``(a, ra, b, rb)`` for the start lookup of
    ``iso_nonrooted``.  The first root reads 0, 1, 2, then 3 or more
    letters, in turn.  b's tree is a's re-rooted, or a's from its first
    state when ``ra`` reads nothing; half the time it is split and renamed,
    so that its classes have several members whose order by name is not
    their order by id.  In every third block of eight ``rb`` moves to a
    state whose out-set is ``ra``'s, while in the next one b is random.
    Every eighth pair is two periodic lines, on which two starts pass; with
    ``split_lines`` the second one is split, and then a search over pairs
    of states may find another witness of the same length."""
    alphabets = [involutive_closure(["a"]), samples.AL_AB, involutive_closure(["a", "b", "c"])]
    for i in range(count):
        if i % 8 == 7:
            period = rng.choice([2, 3, 4, 6])
            a, ra = _periodic_line(rng, period, rng.randrange(period))
            b, rb = _periodic_line(rng, period, 0)
            yield (a, ra, *renamed_pdfa(rng, *_split(rng, b, rb))) if split_lines else (a, ra, b, rb)
            continue
        reads = i % 4
        alphabet = rng.choice(alphabets[reads > 1 :])
        a, first = random_reduced_pdfa(rng, rng.randint(1, 14), alphabet, extra_density=2 * rng.random())
        ra = rng.choice([p for p in sorted(a.states) if min(len(a.out_set(p)), 3) == reads] or [first])
        if i // 8 % 3 == 2:
            b, rb = random_reduced_pdfa(rng, rng.randint(1, 14), alphabet, extra_density=2 * rng.random())
        else:
            b, rb = _rerooted(rng, a, ra) if reads else renamed_pdfa(rng, a, first)
        if i // 4 % 2:
            b, rb = renamed_pdfa(rng, *_split(rng, b, rb))
        if i // 8 % 3 == 1:
            rb = rng.choice([q for q in sorted(b.states) if b.out_set(q) == a.out_set(ra)] or [rb])
        yield a, ra, b, rb


def _count_start_case(kinds: Counter, x: PDfa, rx: str, y: PDfa, ry: str, ok: bool) -> None:
    """Count what ``_start_cases`` asks for: how many letters ``rx`` reads,
    whether ``ry``'s out-set is ``rx``'s, and whether a class of ``y`` has
    several members, the first by name not the one of the smallest id."""
    kinds["reads", min(len(x.out_set(rx)), 3), ok] += 1
    kinds["q0 start", ok] += x.out_set(rx) == y.out_set(ry)
    groups: dict[int, list[str]] = {}
    for q, c in language_classes(y)[0].items():
        groups.setdefault(c, []).append(q)
    ids = y._indexed().ids
    kinds["name order is not id order"] += any(min(g) != min(g, key=ids.__getitem__) for g in groups.values())


def _check_start_counts(kinds: Counter) -> None:
    for reads in range(4):
        assert kinds["reads", reads, True] >= 10 and kinds["reads", reads, False] >= 10, reads
    assert kinds["q0 start", True] >= 10 and kinds["q0 start", False] >= 10
    assert kinds["name order is not id order"] >= 50


def test_class_search_matches_state_search():
    # The search over pairs of classes gives the verdict and the witness
    # length of the search over pairs of states, and each witness verifies.
    rng = random.Random(113)
    kinds = Counter()
    for i in range(360):
        kind = ("renamed", "rerooted", "independent", "split", "split-rerooted", "lifted", "two-tooth", "one-tooth", "hub")[i % 9]
        if kind == "lifted":
            a, ra, b, rb = _lifted_gap2(rng, i // 9 % 2 == 0)
        elif kind == "two-tooth":
            a, ra, b, rb = two_tooth_lines(rng.randint(1, 8))
        elif kind == "hub":
            a, ra, b, rb = hub_lines(rng.randint(1, 8))
        elif kind == "one-tooth":  # the same lines on both sides, one re-rooted and split
            a, ra, _, _ = two_tooth_lines(rng.randint(1, 8))
            b, rb = _split(rng, *_rerooted(rng, a, ra))
        else:
            a, ra = random_reduced_pdfa(rng, rng.randint(1, 16), extra_density=rng.random())
            if i % 3 == 0:
                ra = rng.choice(sorted(a.states))  # may leave part of a unreachable
            if kind == "independent":
                b, rb = random_reduced_pdfa(rng, rng.randint(1, 16), a.alphabet, extra_density=rng.random())
            elif kind == "renamed":
                b, rb = renamed_pdfa(rng, a, ra)
            else:
                b, rb = _rerooted(rng, a, ra)
            if kind.startswith("split"):
                a, ra = _split(rng, a, ra)
                b, rb = _split(rng, b, rb) if i // 9 % 2 else (b, rb)
        for x, rx, y, ry in ((a, ra, b, rb), (b, rb, a, ra)):
            ok, witness = iso_nonrooted(x, rx, y, ry)
            expected, by_states = iso_nonrooted_by_states(x, rx, y, ry)
            assert ok == expected and (witness is None) == (by_states is None), kind
            if ok:
                assert len(witness.word) == len(by_states.word), kind
                assert verify_nonrooted_witness(x, rx, y, ry, witness.word), kind
            kinds[kind, ok] += 1
    for kind in ("renamed", "rerooted", "split", "split-rerooted", "lifted", "one-tooth"):
        assert kinds[kind, True] >= 10, kind
    for kind in ("independent", "lifted", "two-tooth", "hub"):
        assert kinds[kind, False] >= 10, kind
    kinds = Counter()
    for a, ra, b, rb in _start_cases(random.Random(114), 320, split_lines=True):
        for x, rx, y, ry in ((a, ra, b, rb), (b, rb, a, ra)):
            ok, witness = iso_nonrooted(x, rx, y, ry)
            expected, by_states = iso_nonrooted_by_states(x, rx, y, ry)
            assert ok == expected and (witness is None) == (by_states is None)
            if ok:
                assert len(witness.word) == len(by_states.word)
                assert verify_nonrooted_witness(x, rx, y, ry, witness.word)
            _count_start_case(kinds, x, rx, y, ry, ok)
    _check_start_counts(kinds)


def test_starts_are_looked_up_from_two_blocks(monkeypatch):
    # When the first root reads two letters or more, the starts looked at
    # are the sources on its first two letters of the second automaton's
    # states in the classes it reads those letters into, in name order: a
    # handful of a 4000-state reach.  Counted where the mask filter reads
    # them.
    rng = random.Random(156)
    a, ra = random_reduced_pdfa(rng, 4000, samples.AL_AB)
    b, rb = _rerooted(rng, a, ra)
    assert len(reachable_states(b, rb)) == len(b.states) >= 3900
    looked = []
    compress = isomorphism.compress
    monkeypatch.setattr(isomorphism, "compress", lambda data, flags: looked.append(data) or compress(data, flags))
    ok, witness = iso_nonrooted(a, ra, b, rb)
    assert ok and verify_nonrooted_witness(a, ra, b, rb, witness.word)
    ca, cb = language_classes(a, b)
    first, second = (
        {s for (s, x), t in b.delta.items() if x == y and cb[t] == ca[a.delta[ra, y]]}
        for y in sorted(a.out_set(ra))[:2]
    )
    assert first - second and second - first  # both letters find starts
    names = b._indexed().names
    assert [[names[q] for q in data] for data in looked] == [sorted(first | second)]
    assert len(first | second) < 10


def test_two_tooth_lines_search_far_inside_the_state_search():
    # All the left-line states of the two-tooth lines read one language, so
    # the search over pairs of states queues about n^2 configurations.  Over
    # pairs of classes it queues O(n): at n = 400 about 100 times faster on
    # a 2-vCPU machine.  The bound asks for 8 times, which the state search
    # misses by 8 times.
    a, ra, b, rb = two_tooth_lines(400)
    assert iso_nonrooted(a, ra, b, rb) == (False, None)  # builds both forms
    fast = []
    for _ in range(3):
        start = time.perf_counter()
        iso_nonrooted(a, ra, b, rb)
        fast.append(time.perf_counter() - start)
    start = time.perf_counter()
    assert iso_nonrooted_by_states(a, ra, b, rb) == (False, None)
    slow = time.perf_counter() - start
    assert 8 * min(fast) < slow, (min(fast), slow)


def test_wide_alphabet_builds_no_table_per_mask():
    # 64 letters: a list over every mask could not even be sized, and each
    # search keeps only the masks it meets.  The calls hold 80-96 KB at
    # their peak, the keys built beforehand, most of it the two-round parts
    # that the refinement groups key blocks by; the bound is 256 KB.
    rng = random.Random(127)
    wide = involutive_closure([f"g{i}" for i in range(32)])
    for _ in range(4):
        a, ra = random_reduced_pdfa(rng, 10, wide, extra_density=0.5)
        b, rb = _rerooted(rng, a, ra)
        for d in (a, b):  # with 18-19 letters read per state, the keys alone are 49-58 KB each
            automata._predecessors(d, d._indexed(), ra if d is a else rb)
        tracemalloc.start()
        try:
            assert iso_nonrooted(a, ra, b, rb)[0] and iso_nonrooted(b, rb, a, ra)[0]
            assert iso_rooted(a, ra, a, ra) == (True, None)
            assert iso_rooted(a, ra, b, rb)[0] == iso_rooted(b, rb, a, ra)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18, peak


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
    assert a._form is None and b._form[1][0] is b._index
    calls.clear()
    language_classes(a, b)
    assert sum(calls.values()) == 1


def test_cached_reach_is_only_read(monkeypatch):
    # Every reader of the reach walks it and leaves the side kept for it
    # as it was, and a repeated refinement reads that side without walking
    # again.  A state only a transition names makes ``iso_rooted`` walk
    # the reach as well.
    d, root = random_reduced_pdfa(random.Random(89), 40, samples.AL_AB)
    d = PDfa(d.states | {"spare"}, d.alphabet, {**d.delta, ("ghost", "a"): "spare"})
    iso_nonrooted(d, root, d, root)
    form = d._form
    calls = _count(monkeypatch, "_walk")
    trim(d, root)
    reroot_along_word(d, root, _walk(d, root, ["ab", "ba", "ab", "ba"]))
    assert len(reachable_states(d, root)) == len(form[1][1]) < len(d.states)
    iso_rooted(d, root, d, root)
    assert d._form is form and form[0] == root
    calls.clear()
    iso_nonrooted(d, root, d, root)
    assert d._form is form
    assert not calls[("_walk", id(d._index))]


def test_walkers_from_another_root_keep_the_form(monkeypatch):
    # Walks from another root of d leave the side kept for the first root:
    # trim, reachable_states and re-rooting, iso_rooted's walk past a state
    # only a transition names, and an iso_nonrooted that widens d's index to
    # a larger merged alphabet.  Repeating the first call then builds and
    # walks nothing.
    d, root = random_reduced_pdfa(random.Random(109), 60, samples.AL_AB)
    e, re_ = _rerooted(random.Random(113), d, root)
    d = PDfa(d.states | {"spare"}, d.alphabet, {**d.delta, ("ghost", "a"): "spare"})
    first = iso_nonrooted(d, root, e, re_)
    assert first[0]
    form = d._form
    other = min(d.states - {root, "spare"})
    wide = PDfa(e.states, involutive_closure(["a", "b", "c"]), e.delta)
    calls = _count(monkeypatch, "_build_predecessors", "_walk")
    trim(d, other)
    reachable_states(d, other)
    reroot_along_word(d, other, _walk(d, other, ["ab", "ba", "ab"]))
    iso_rooted(d, other, e, re_)
    iso_nonrooted(d, other, wide, re_)
    assert d._form is form and not calls[("_build_predecessors", id(d._index))]
    calls.clear()
    assert iso_nonrooted(d, root, e, re_) == first
    assert not calls and d._form is form


def test_small_reach_builds_the_form_of_the_reach_only(monkeypatch):
    # Two pDFAs of over 2000 states whose roots reach about 50, with a
    # state only a transition names in the part they do not reach.  The
    # first call builds the side of each root's reach and of nothing more:
    # the keys are those of the reached ids, the build reads the columns at
    # reached ids only, and the kept entry holds the own index and no other
    # list as long as the index but the tuples.  A second call builds and
    # walks nothing, and the whole automaton's quotient still names the
    # unlisted state.
    rng = random.Random(97)
    small, root = random_reduced_pdfa(rng, 50, samples.AL_AB)
    other, other_root = _rerooted(rng, small, root)

    def padded(d, prefix):
        pad, _ = random_reduced_pdfa(rng, 2000, samples.AL_AB)
        delta = {(prefix + p, x): prefix + q for (p, x), q in pad.delta.items()}
        delta.update(d.delta)
        delta[("g0", "a")] = "ghost"
        return PDfa(d.states | {prefix + p for p in pad.states} | {"g0"}, d.alphabet, delta)

    class Column(list):
        """A successor column that records the ids read from it."""

        def __getitem__(self, s):
            read.add(s)
            return super().__getitem__(s)

    a, b = padded(small, "u"), padded(other, "v")
    built = []
    build = automata._build_predecessors
    monkeypatch.setattr(automata, "_build_predecessors", lambda ix, keep: built.append(sorted(keep)) or build(ix, keep))
    walks = _count(monkeypatch, "_walk")
    first = iso_nonrooted(a, root, b, other_root)
    assert first[0]
    assert built == [sorted(automata._reach(b, other_root)), sorted(automata._reach(a, root))]
    assert len(built[1]) == 50 and len(built[0]) < 100 and min(len(a.states), len(b.states)) > 2000
    forms = [a._form[1], b._form[1]]
    for d, (own, order, into, keys) in zip((a, b), forms):
        ix = d._indexed()
        assert own is ix
        assert order == sorted(automata._reach(d, d._form[0]), key=ix.names.__getitem__)
        assert keys == [_three_round_key(ix, s) for s in order]
        long = [x for x in (d._form[0], *d._form[1][1:]) if isinstance(x, list) and len(x) >= len(ix.names)]
        assert len(long) == 1 and long[0] is into
        read: set[int] = set()
        columns = ix._replace(succ=[Column(col) for col in ix.succ])
        assert build(columns, order) == (columns, order, into, keys)
        assert read == set(order)
    built.clear()
    walks.clear()
    assert iso_nonrooted(a, root, b, other_root) == first
    assert not built and not walks
    assert a._form[1] is forms[0] and b._form[1] is forms[1]
    assert first == iso_nonrooted_by_union(a, root, b, other_root)
    for d, r in ((a, root), (b, other_root)):
        assert trim(d, r).states == reachable_states(d, r)
        with pytest.raises(UnknownStateError, match="'ghost'"):
            quotient(d)


def _same_blocks(x: list[int], y: list[int]) -> bool:
    """Whether two block lists name the same partition, with ``-1`` for an
    id in no block on both."""
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    return [first.setdefault(b, len(first)) if b >= 0 else -1 for b in x] == [
        second.setdefault(b, len(second)) if b >= 0 else -1 for b in y
    ]


def _lasso(n: int, loop: int, name: str) -> tuple[PDfa, str]:
    """The a-path of ``n`` states into an a-cycle of ``loop`` states, or a
    path ending in a leaf for ``loop`` 0; rooted at its first state."""
    states = [f"{name}{i}" for i in range(n + loop)]
    delta = {(states[i], "a"): states[i + 1] for i in range(n + loop - 1)}
    if loop:
        delta[(states[-1], "a")] = states[n]
    return PDfa(states, samples.AL_A, delta), states[0]


def _check_against_oracles(monkeypatch, a: PDfa, ra: str, b: PDfa, rb: str) -> None:
    """The refinement seeded with three-round keys gives the partition of
    the three oracles, seeded with masks and with one-round and two-round
    keys, on the sides of ``iso_nonrooted``, ``language_classes`` and
    ``quotient``, and so the same verdicts, witnesses, classes and
    quotients."""
    alphabet = merge_alphabets(a.alphabet, b.alphabet)
    oracles = (classes_from_masks, classes_from_one_round_keys, classes_from_two_round_keys)
    for roots in ((ra, rb), (None, None)):
        sides = []
        for d, root in zip((a, b), roots):
            ix = d._indexed(alphabet)
            sides.append(automata._predecessors(d, ix, root))
        for chosen in (sides, sides[:1], sides[1:]):
            block, stride, _ = automata._classes(chosen)
            for oracle in oracles:
                expected, expected_stride, _ = oracle(chosen)
                assert stride == expected_stride and _same_blocks(block, expected), oracle.__name__
    results = []
    for refine in (automata._classes, *oracles):
        with monkeypatch.context() as m:
            m.setattr(isomorphism, "_classes", refine)
            m.setattr(compression, "_classes", refine)
            results.append((
                iso_nonrooted(a, ra, b, rb),
                iso_nonrooted(b, rb, a, ra),
                partition(language_classes(a, b)),
                partition(language_classes(a)),
                quotient(a),
                quotient(b),
            ))
    assert all(result == results[0] for result in results[1:])


def test_key_seeded_refinement_matches_mask_seeded_oracle(monkeypatch):
    rng = random.Random(103)
    al_b = involutive_closure(["b"])
    kinds = Counter()
    for i in range(240):
        kind = ("renamed", "rerooted", "lifted", "lasso", "b-vs-ab", "alone")[i % 6]
        if kind == "lifted":
            a, ra, b, rb = _lifted_gap2(rng, i // 6 % 2 == 0)
        elif kind == "lasso":  # three Moore rounds split off at most the leaf's three nearest ancestors
            a, ra = _lasso(rng.randint(1, 300), rng.choice([0, 1, rng.randint(2, 40)]), "s")
            b, rb = (_rerooted if i // 6 % 2 else renamed_pdfa)(rng, a, ra)
        else:
            alphabet = al_b if kind == "b-vs-ab" else None
            a, ra = random_reduced_pdfa(rng, rng.randint(1, 60), alphabet, extra_density=rng.random())
            if i % 4 == 0:
                ra = rng.choice(sorted(a.states))  # may leave part of a unreachable
            if kind == "alone":
                b, rb = a, rng.choice(sorted(a.states)) if i // 6 % 2 else ra
            elif kind == "renamed":
                b, rb = renamed_pdfa(rng, a, ra)
            else:
                b, rb = _rerooted(rng, a, ra)
            if kind == "b-vs-ab":  # the merged-alphabet path on one side
                b = PDfa(b.states, samples.AL_AB, b.delta)
        _check_against_oracles(monkeypatch, a, ra, b, rb)
        kinds[kind, iso_nonrooted(a, ra, b, rb)[0]] += 1
    for kind in ("renamed", "rerooted", "lifted", "lasso", "b-vs-ab", "alone"):
        assert kinds[kind, True] >= 10, kind
    assert kinds["lifted", False] >= 10 and kinds["alone", False] >= 5


def _three_round_key(ix, s: int) -> int:
    """The key ``_build_predecessors`` documents for id ``s`` of ``ix``,
    spelled out: the ids at depths 0 to 3 below ``s``, each depth in letter
    order; their masks in whole bytes, depth 3 after a header that holds the
    byte offset of depth 0, then depths 0 to 2."""
    width, head = (len(ix.letters) + 7) // 8, automata._header(len(ix.letters))
    depths = [[s]]
    for _ in range(3):
        depths.append([col[t] for t in depths[-1] for col in ix.succ if col[t] >= 0])
    lowest, *upper = (b"".join(ix.masks[t].to_bytes(width, "little") for t in depth) for depth in depths[::-1])
    header = (head + len(lowest)).to_bytes(head, "little")
    return int.from_bytes(header + lowest + b"".join(upper[::-1]), "little")


def test_keys_of_a_wide_alphabet_never_alias(monkeypatch):
    # Six generators: twelve letters, so a mask takes two bytes and a key
    # at most 2 + 2 * (1 + 12 + 12**2 + 12**3) bytes.  Equal keys mean
    # equal out-masks of the id, its successors, theirs and theirs, and
    # nothing else; equal two-round parts, the key shifted past its header
    # and depth 3, mean the first three; and the refinement still matches
    # the three oracles.
    rng = random.Random(107)
    wide = involutive_closure([f"g{i}" for i in range(6)])
    header = (1 << 8 * automata._header(12)) - 1
    for _ in range(30):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 80), wide, extra_density=rng.random())
        b, rb = _rerooted(rng, a, ra)
        for d in (a, b):
            ix = d._indexed()
            _, order, _, keys = automata._predecessors(d, ix)
            reads = ix.masks + [0]

            def successors(s):
                return [col[s] if s >= 0 else -1 for col in ix.succ]

            def below(states):
                return [t for s in states for t in successors(s)]

            seconds = [(reads[s], *map(reads.__getitem__, below([s])), *map(reads.__getitem__, below(below([s])))) for s in order]
            thirds = [(*second, *map(reads.__getitem__, below(below(below([s]))))) for s, second in zip(order, seconds)]
            parts = [key >> 8 * (key & header) for key in keys]
            assert keys == [_three_round_key(ix, s) for s in order]
            assert len(keys) == len(order) and max(keys) < 1 << 8 * (2 + 2 * (1 + 12 + 12**2 + 12**3))
            assert len(set(zip(keys, thirds))) == len(set(keys)) == len(set(thirds))
            assert len(set(zip(parts, seconds))) == len(set(parts)) == len(set(seconds))
        _check_against_oracles(monkeypatch, a, ra, b, rb)


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


def test_iso_nonrooted_agrees_with_node_enumeration_on_small_trees(capsys):
    # Every 25th ordered pair of each pool; CI runs them all.  On {a, b}^±1
    # these are 1569 of the 198² pairs of distinct trees of one or two
    # states; on {a}^±1 and {c}, of the 777² and 37² pairs of pDFAs of one
    # to three states, at each of their states.  25 is coprime to 198, 777
    # and 37, so every tree or rooted pDFA is met on both sides.
    assert nonrooted_sweep.main(["25"]) == 0
    assert capsys.readouterr().out == (
        "{a, b}^±1, 2 states: 1569 pairs agree\n"
        "{a}^±1, 3 states: 24150 pairs agree\n"
        "{c}, 3 states: 55 pairs agree\n"
    )


def test_nonrooted_verdicts_keep_their_algebra_at_scale():
    # Four members for each of three random reduced bases of about 1000,
    # 1100 and 1200 states: 144 ordered pairs, 24 lifts and 12 quotients,
    # with no oracle.  Most bases have classes of several states, so the
    # quotients shrink.  CI checks families of 10^4 states.
    members = nonrooted_families(random.Random(1), (1000, 1100, 1200))
    assert all(len(quotient(d)[0].states) < len(d.states) for _, d, _ in members)
    assert nonrooted_sweep.family_disagreement(members) is None


def test_canonical_key_matches_iso_rooted():
    rng = random.Random(53)
    for _ in range(60):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 3))
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 3))
        ok, _ = iso_rooted(a, ra, b, rb)
        assert ok == (canonical_rooted_key(a, ra) == canonical_rooted_key(b, rb))
    # Every reduced pDFA of one to three states over {a}^±1 and over {c},
    # at each of its states, against the first of each rooted tree, both
    # ways: every ordered pair of distinct trees, and every way the pools
    # write a tree, some with equivalent states.
    for _, _, alphabet, _ in nonrooted_sweep.POOLS[1:]:
        rooted = nonrooted_sweep.rooted(3, alphabet, every=True)
        firsts = {}
        for d, r, key in rooted:
            firsts.setdefault(key, (d, r))
        for d, r, key in rooted:
            for other, (e, s) in firsts.items():
                for x, rx, y, ry in ((d, r, e, s), (e, s, d, r)):
                    ok, witness = iso_rooted(x, rx, y, ry)
                    assert ok == (key == other)
                    if not ok:
                        reads = x.run(rx, witness.word) is not None, y.run(ry, witness.word) is not None
                        assert reads == (witness.side == "left", witness.side == "right")


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
