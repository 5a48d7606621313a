import random
from collections import Counter

import pytest

import samples
from cftree import (
    NotReducedError,
    PDfa,
    automata,
    involutive_closure,
    iso_nonrooted,
    iso_rooted,
    language_classes,
    reduce_gap2_to_rooted_iso,
    verify_nonrooted_witness,
)
from oracles import (
    canonical_rooted_key,
    equivalent_pairs,
    iso_rooted_reindexed,
    language_upto,
    langs_equal_upto,
    nonrooted_witness_brute,
)
from randgen import exhaustive_reduced_pdfa_pool, random_gap2, random_pdfa, random_reduced_pdfa


def class_pairs(a: PDfa, b: PDfa) -> set[tuple[str, str]]:
    """The pairs of states that ``language_classes`` puts in one class."""
    ca, cb = language_classes(a, b)
    return {(p, q) for p in a.states for q in b.states if ca[p] == cb[q]}


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
    for a, b in pairs:
        assert class_pairs(a, b) == equivalent_pairs(a, b)
    for a, _ in pairs:
        (c,) = language_classes(a)
        assert {(p, q) for p in a.states for q in a.states if c[p] == c[q]} == equivalent_pairs(a, a)


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
    assert builds == {id(a.delta): 1, id(b.delta): 1}
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


def test_merged_alphabets_are_handled():
    x = PDfa({"s"}, involutive_closure(["a"]), {("s", "a"): "s"})
    y = PDfa({"t"}, involutive_closure(["b"]), {("t", "b"): "t"})
    ok, witness = iso_rooted(x, "s", y, "t")
    assert not ok and witness.word in {("a",), ("b",)}
    ok, _ = iso_nonrooted(x, "s", y, "t")
    assert not ok
