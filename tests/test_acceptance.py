"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

from cftree import (
    involutive_closure,
    is_reduced,
    iso_nonrooted,
    iso_rooted,
    nondeterministic_vertex,
    reachable_states,
    reduce_gap2_to_rooted_iso,
    reduce_rooted_to_nonrooted,
    reroot_along_word,
    reroot_disc,
    truncate,
    unfold_pdfa,
    validate_pdfa,
    verify_nonrooted_witness,
    language_classes,
    compress_finite_tree,
    disc_equal_rooted,
    gap2_has_path,
)
from oracles import language_upto, langs_equal_upto, nodes_upto, nonrooted_witness_brute
from randgen import (
    exhaustive_reduced_pdfa_pool,
    random_gap2,
    random_involutive_tree,
    random_pdfa,
    random_reduced_pdfa,
)


def _report(number, name):
    def decorator(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"\n[acceptance] criterion {number} ({name}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number} ({name}): PASS")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


# Instances shared between criteria 1/3 and 2/3.
_rooted_noniso_instances = []
_nonrooted_iso_instances = []


@_report(1, "rooted-iso oracle equivalence")
def test_criterion_1_rooted_oracle():
    # (i) exhaustive sweep: every reduced pDFA with <= 2 states over {a,b}^(+-1),
    # compared on all designated-state pairs within each automaton and across
    # stride-matched automaton pairs.
    pool = exhaustive_reduced_pdfa_pool(2)
    assert len(pool) > 100
    checked = 0

    def check(a, ra, b, rb):
        nonlocal checked
        k = len(a.states) * len(b.states)
        ok, witness = iso_rooted(a, ra, b, rb)
        assert ok == (language_upto(a, ra, k) == language_upto(b, rb, k))
        if not ok:
            _rooted_noniso_instances.append((a, ra, b, rb, witness))
        checked += 1

    for d in pool:
        names = sorted(d.states)
        for p in names:
            for q in names:
                check(d, p, d, q)
    for stride in (1, 37):
        for i, d in enumerate(pool):
            e = pool[(i + stride) % len(pool)]
            check(d, sorted(d.states)[0], e, sorted(e.states)[0])

    # (ii) 1000 random reduced pDFAs with <= 6 states over alphabets of <= 4
    # letters, compared in a cycle.  The oracle is the same truncated-language
    # equality at length |Q_A|*|Q_B|, evaluated recursively since the word
    # sets themselves are astronomically large at that depth.
    rng = random.Random(101)
    autos = [random_reduced_pdfa(rng, rng.randint(1, 6)) for _ in range(1000)]
    for i, (a, ra) in enumerate(autos):
        b, rb = autos[(i + 1) % len(autos)]
        k = len(a.states) * len(b.states)
        ok, witness = iso_rooted(a, ra, b, rb)
        assert ok == langs_equal_upto(a, ra, b, rb, k)
        if not ok:
            _rooted_noniso_instances.append((a, ra, b, rb, witness))
    assert checked >= 2000


@_report(2, "non-rooted oracle equivalence")
def test_criterion_2_nonrooted_oracle():
    # First validate the witness-depth bound 2*|Q_A|*|Q_B|*(|A|+1) by
    # exhaustive node enumeration on small instances: every isomorphic pair
    # must have a witness node no deeper than the bound, and none shallower
    # than the engine's witness.
    rng = random.Random(202)
    validated = 0
    for trial in range(120):
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 3))
        if trial % 2 == 0:
            a, ra = random_reduced_pdfa(rng, rng.randint(1, 3))
        else:
            # Re-rooting guarantees a non-rooted isomorphic partner.
            words = sorted(language_upto(b, rb, 3), key=lambda w: (len(w), w))
            a, ra = reroot_along_word(b, rb, rng.choice(words))
        bound = 2 * len(a.states) * len(b.states) * (
            len(a.alphabet.letters | b.alphabet.letters) + 1
        )
        ok, witness = iso_nonrooted(a, ra, b, rb)
        if trial % 2 == 1:
            assert ok, "a re-rooted copy must be non-rooted isomorphic"
        if not ok:
            continue
        depth = len(witness.word)
        assert depth <= bound
        candidates = nodes_upto(b, rb, depth)
        if len(candidates) <= 400:
            hits = [
                w
                for w in candidates
                if verify_nonrooted_witness(a, ra, b, rb, w)
            ]
            assert hits, "engine accepted but exhaustive enumeration found no node"
            assert min(len(w) for w in hits) == depth
            validated += 1
    assert validated >= 20

    # 200 random pairs with <= 4 states each against the bounded node search.
    rng = random.Random(203)
    for _ in range(200):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 4))
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 4))
        bound = 2 * len(a.states) * len(b.states) * (
            len(a.alphabet.letters | b.alphabet.letters) + 1
        )
        ok, witness = iso_nonrooted(a, ra, b, rb)
        brute = nonrooted_witness_brute(a, ra, b, rb, bound)
        assert ok == (brute is not None)
        if ok:
            assert len(witness.word) == len(brute)
            _nonrooted_iso_instances.append((a, ra, b, rb, witness))


@_report(3, "witness soundness")
def test_criterion_3_witness_soundness():
    assert _rooted_noniso_instances, "criterion 1 must run first"
    for a, ra, b, rb, witness in _rooted_noniso_instances:
        in_a = a.run(ra, witness.word) is not None
        in_b = b.run(rb, witness.word) is not None
        assert in_a != in_b, "witness must be readable from exactly one side"
        assert (witness.side == "left") == in_a
        assert langs_equal_upto(a, ra, b, rb, len(witness.word) - 1), (
            "a shorter separating word exists"
        )
    assert _nonrooted_iso_instances, "criterion 2 must run first"
    for a, ra, b, rb, witness in _nonrooted_iso_instances:
        assert verify_nonrooted_witness(a, ra, b, rb, witness.word)


@_report(4, "2GAP metamorphic suite")
def test_criterion_4_gap2_metamorphic():
    rng = random.Random(404)
    for _ in range(500):
        g = random_gap2(rng, max_n=32)
        a, ra, b, rb = reduce_gap2_to_rooted_iso(g)
        ok, _ = iso_rooted(a, ra, b, rb)
        assert ok == (not gap2_has_path(g))
        for d, root in ((a, ra), (b, rb)):
            assert validate_pdfa(d).ok
            assert is_reduced(d)
            assert reachable_states(d, root) == d.states


@_report(5, "marker-lift metamorphic suite")
def test_criterion_5_lift_metamorphic():
    rng = random.Random(505)
    for _ in range(200):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 5))
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 5))
        rooted, _ = iso_rooted(a, ra, b, rb)
        a2, p2, b2, q2 = reduce_rooted_to_nonrooted(a, ra, b, rb)
        lifted, _ = iso_nonrooted(a2, p2, b2, q2)
        assert lifted == rooted


@_report(6, "re-rooting correctness")
def test_criterion_6_rerooting():
    rng = random.Random(606)
    radius = 5
    for _ in range(100):
        d, root = random_reduced_pdfa(rng, rng.randint(1, 5))
        words = sorted(w for w in language_upto(d, root, 3))
        for w in words:
            out, state = reroot_along_word(d, root, w)
            got = unfold_pdfa(out, state, radius)
            want = truncate(
                reroot_disc(unfold_pdfa(d, root, radius + len(w)), w), radius
            )
            assert disc_equal_rooted(got, want)
            assert is_reduced(out)


@_report(7, "reduced iff unfolding deterministic")
def test_criterion_7_determinism_of_unfolding():
    rng = random.Random(707)
    n_reduced = n_not = 0
    for _ in range(200):
        if rng.random() < 0.5:
            d, root = random_reduced_pdfa(rng, rng.randint(1, 4))
        else:
            d, root = random_pdfa(rng, rng.randint(1, 4), density=0.4)
        if is_reduced(d):
            t = unfold_pdfa(d, root, 2 * len(d.states))
            assert nondeterministic_vertex(t) is None
            n_reduced += 1
        else:
            t = unfold_pdfa(d, root, len(d.states) + 1)
            assert nondeterministic_vertex(t) is not None
            n_not += 1
    assert n_reduced >= 40 and n_not >= 40


@_report(8, "compression round trip")
def test_criterion_8_compression_round_trip():
    rng = random.Random(808)
    for _ in range(100):
        t = random_involutive_tree(rng, max_nodes=50)
        d, root = compress_finite_tree(t)
        assert disc_equal_rooted(unfold_pdfa(d, root, t.radius), t)
        (classes,) = language_classes(d)
        assert len(set(classes.values())) == len(d.states)


@_report(9, "performance smoke")
def test_criterion_9_performance():
    rng = random.Random(909)
    al = involutive_closure(["a", "b"])
    a, ra = random_reduced_pdfa(rng, 1000, al, extra_density=0.6)
    b, rb = random_reduced_pdfa(rng, 1000, al, extra_density=0.6)
    start = time.perf_counter()
    iso_rooted(a, ra, b, rb)
    rooted_elapsed = time.perf_counter() - start
    assert rooted_elapsed < 1.0, f"rooted decision took {rooted_elapsed:.2f}s"

    a2, ra2 = random_reduced_pdfa(rng, 100, al, extra_density=0.6)
    b2, rb2 = random_reduced_pdfa(rng, 100, al, extra_density=0.6)
    start = time.perf_counter()
    iso_nonrooted(a2, ra2, b2, rb2)
    nonrooted_elapsed = time.perf_counter() - start
    assert nonrooted_elapsed < 5.0, f"non-rooted decision took {nonrooted_elapsed:.2f}s"
