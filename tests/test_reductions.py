import random

import pytest

import samples
from cftree import (
    DEFAULT_MAX_NODES,
    AlphabetError,
    Gap2Instance,
    MaterializationLimitError,
    PDfa,
    TOP_LETTER,
    gap2_has_path,
    involutive_closure,
    is_reduced,
    iso_nonrooted,
    iso_rooted,
    reachable_states,
    reduce_gap2_to_rooted_iso,
    reduce_rooted_to_nonrooted,
    validate_pdfa,
)
from oracles import reduce_gap2_by_names
from randgen import random_gap2, random_reduced_pdfa


def test_gap2_trivia():
    assert gap2_has_path(Gap2Instance(2, frozenset({(0, 1)})))
    assert not gap2_has_path(Gap2Instance(2, frozenset()))
    assert gap2_has_path(Gap2Instance(1, frozenset()))


def test_gap2_rejects_bad_instances():
    with pytest.raises(ValueError, match="need at least one node"):
        Gap2Instance(0)
    with pytest.raises(ValueError):
        Gap2Instance(2, frozenset({(0, 5)}))
    with pytest.raises(ValueError):
        Gap2Instance(4, frozenset({(0, 1), (0, 2), (0, 3)}))
    # A float or a bool is refused up front, not left to the reduction's
    # ``bit_length`` or list indexing.
    for n in (2.0, True, "2", None):
        with pytest.raises(ValueError, match="node count .* is not an int"):
            Gap2Instance(n, frozenset({(0, 1)}))
    for edge in ((0, 1.0), (0.0, 1), (True, 1), (0, False)):
        with pytest.raises(ValueError, match="names a node that is not an int"):
            Gap2Instance(2, frozenset({edge}))
    # An edge that is not a pair is named, whether it is no sequence at all
    # or one of the wrong length, and whether the edges come as a set or a
    # list.
    for edge, text in ((0, "0"), (None, "None"), ((1,), r"\(1,\)"), ((1, 2, 0), r"\(1, 2, 0\)"), ((), r"\(\)")):
        for edges in (frozenset({(0, 1), edge}), [(0, 1), edge]):
            with pytest.raises(ValueError, match=rf"^edge {text} is not a pair of nodes$"):
                Gap2Instance(3, edges)
    # A list may repeat an edge, as a list or an iterator too; the
    # out-degree counts it once.
    assert Gap2Instance(3, [(0, 1), (0, 1), (0, 2), [0, 2], iter((0, 2))]).edges == {(0, 1), (0, 2)}


def test_reduce_gap2_refuses_instances_past_the_node_budget():
    # 2^19 + 1 nodes pad to 2^20, and each automaton would have 2^21 - 1
    # states; 10^12 nodes would pad to 2^40.
    for n in (DEFAULT_MAX_NODES // 2 + 1, 10**12):
        with pytest.raises(MaterializationLimitError):
            reduce_gap2_to_rooted_iso(Gap2Instance(n))


def test_reduce_gap2_path_instance_not_isomorphic():
    a, ra, b, rb = reduce_gap2_to_rooted_iso(Gap2Instance(2, frozenset({(0, 1)})))
    ok, _ = iso_rooted(a, ra, b, rb)
    assert not ok


def test_reduce_gap2_pathless_instance_isomorphic():
    a, ra, b, rb = reduce_gap2_to_rooted_iso(Gap2Instance(2, frozenset()))
    ok, _ = iso_rooted(a, ra, b, rb)
    assert ok


def test_reduce_gap2_output_shape():
    g = Gap2Instance(5, frozenset({(0, 1), (1, 4), (2, 3)}))
    a, ra, b, rb = reduce_gap2_to_rooted_iso(g)
    size = 8  # next power of two
    assert len(a.states) == size + size - 1
    assert len(b.states) == size + size - 1
    assert ra == rb == ""
    for d, root in ((a, ra), (b, rb)):
        assert validate_pdfa(d).ok
        assert is_reduced(d)
        assert reachable_states(d, root) == d.states
        positive = {x for (_, x) in d.delta}
        assert positive <= {"0", "1"}


def test_reduce_gap2_matches_name_formatting_oracle():
    rng = random.Random(41)
    for _ in range(200):
        g = random_gap2(rng, max_n=40)
        assert reduce_gap2_to_rooted_iso(g) == reduce_gap2_by_names(g)


def test_reduce_gap2_requires_two_nodes():
    with pytest.raises(ValueError):
        reduce_gap2_to_rooted_iso(Gap2Instance(1, frozenset()))


def test_gap2_metamorphic_sample():
    rng = random.Random(61)
    for _ in range(50):
        g = random_gap2(rng, max_n=16)
        a, ra, b, rb = reduce_gap2_to_rooted_iso(g)
        ok, _ = iso_rooted(a, ra, b, rb)
        assert ok == (not gap2_has_path(g))


def test_lift_preserves_verdict_both_ways():
    d = samples.astar_bstar_pdfa()
    a2, p2, b2, q2 = reduce_rooted_to_nonrooted(d, "p", d, "p")
    ok, _ = iso_nonrooted(a2, p2, b2, q2)
    assert ok
    a2, p2, b2, q2 = reduce_rooted_to_nonrooted(d, "p", d, "q")
    ok, _ = iso_nonrooted(a2, p2, b2, q2)
    assert not ok


def test_lift_output_shape():
    d = samples.astar_bstar_pdfa()
    a2, p2, b2, q2 = reduce_rooted_to_nonrooted(d, "p", d, "q")
    assert len(a2.states) == len(d.states) + 1
    assert len(a2.delta) == len(d.delta) + 1
    assert a2.delta[(p2, TOP_LETTER)] == "p"
    assert b2.delta[(q2, TOP_LETTER)] == "q"
    assert is_reduced(a2) and is_reduced(b2)
    assert reachable_states(a2, p2) == a2.states == d.states | {p2}
    # The new root's name gets primes until it is fresh.
    e = PDfa({"p", "p'"}, d.alphabet, {("p", "a"): "p'"})
    a2, p2, _, _ = reduce_rooted_to_nonrooted(e, "p", e, "p")
    assert p2 == "p''" and a2.delta[(p2, TOP_LETTER)] == "p"
    # Also past a state that only a transition names, which would otherwise
    # lend the new root its a^-1 edge.
    al = involutive_closure(["a"])
    f = PDfa({"p", "z"}, al, {("p", "a"): "p", ("p'", "a^-1"): "z"})
    g = PDfa({"p"}, al, {("p", "a"): "p"})
    a2, p2, b2, q2 = reduce_rooted_to_nonrooted(f, "p", g, "p")
    assert (p2, q2) == ("p''", "p'") and a2.delta[("p'", "a^-1")] == "z"
    assert sorted(a2.out_set(p2)) == [TOP_LETTER]
    assert iso_rooted(f, "p", g, "p")[0] and iso_nonrooted(a2, p2, b2, q2)[0]


def test_lift_rejects_marker_collision():
    from cftree import PDfa, involutive_closure

    al = involutive_closure([TOP_LETTER])
    d = PDfa({"s"}, al, {("s", TOP_LETTER): "s"})
    with pytest.raises(AlphabetError):
        reduce_rooted_to_nonrooted(d, "s", d, "s")


def test_lift_metamorphic_sample():
    rng = random.Random(67)
    for _ in range(30):
        a, ra = random_reduced_pdfa(rng, rng.randint(1, 4))
        b, rb = random_reduced_pdfa(rng, rng.randint(1, 4))
        rooted, _ = iso_rooted(a, ra, b, rb)
        a2, p2, b2, q2 = reduce_rooted_to_nonrooted(a, ra, b, rb)
        lifted, witness = iso_nonrooted(a2, p2, b2, q2)
        assert lifted == rooted
        if lifted:
            assert witness.word == ()  # the marker pins root to root
