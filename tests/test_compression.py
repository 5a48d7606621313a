import random

import pytest

import samples
from cftree import (
    DiscTree,
    NondeterministicTreeError,
    PDfa,
    compress_finite_tree,
    disc_equal_rooted,
    involutive_closure,
    is_reduced,
    iso_rooted,
    language_classes,
    minimize,
    quotient,
    unfold_mnfa,
    unfold_pdfa,
)
from randgen import random_involutive_tree


def path_tree(letters):
    al = involutive_closure(["a", "b"])
    nodes = list(range(len(letters) + 1))
    labels = {v: "t" for v in nodes}
    children = {i: ((letters[i], i + 1),) for i in range(len(letters))}
    return DiscTree(len(letters), 0, labels, children, al)


def test_compress_single_node():
    al = involutive_closure(["a"])
    t = DiscTree(0, "r", {"r": "t"}, {}, al)
    d, root = compress_finite_tree(t)
    assert len(d.states) == 1
    assert d.delta == {}
    assert root in d.states


def test_compress_word_path():
    # The finite tree of the word ab: three distinct end-cones, two transitions.
    t = path_tree(["a", "b"])
    d, root = compress_finite_tree(t)
    assert len(d.states) == 3
    assert len(d.delta) == 2
    got = unfold_pdfa(d, root, 2)
    assert disc_equal_rooted(got, t)


def test_compress_complete_binary_depth3():
    al = involutive_closure(["a", "b"])
    labels, children = {}, {}
    words = [""]
    labels[""] = "t"
    for _ in range(3):
        nxt = []
        for w in words:
            kids = []
            for x in ("a", "b"):
                c = w + x
                labels[c] = "t"
                kids.append((x, c))
                nxt.append(c)
            children[w] = tuple(kids)
        words = nxt
    t = DiscTree(3, "", labels, children, al)
    d, root = compress_finite_tree(t)
    assert len(d.states) == 4  # one state per level
    for (p, x), q in d.delta.items():
        assert x in ("a", "b")
    assert disc_equal_rooted(unfold_pdfa(d, root, 3), t)


def test_compress_rejects_nondeterministic_closure():
    al = involutive_closure(["a"])
    t = DiscTree(
        1,
        "r",
        {"r": "t", "c1": "t", "c2": "t"},
        {"r": (("a", "c1"), ("a", "c2"))},
        al,
    )
    with pytest.raises(NondeterministicTreeError):
        compress_finite_tree(t)


def test_compress_round_trip_random():
    rng = random.Random(71)
    for _ in range(40):
        t = random_involutive_tree(rng, max_nodes=40)
        d, root = compress_finite_tree(t)
        assert is_reduced(d)
        assert disc_equal_rooted(unfold_pdfa(d, root, t.radius), t)
        (classes,) = language_classes(d)
        assert len(set(classes.values())) == len(d.states)


def test_minimize_already_minimal():
    d = samples.astar_bstar_pdfa()
    m, rep = quotient(d)
    assert minimize(d) == m and len(m.states) == 2
    ok, _ = iso_rooted(d, "p", m, rep["p"])
    assert ok


def test_minimize_collapses_copies():
    al = involutive_closure(["a"])
    d = PDfa({"s", "t"}, al, {("s", "a"): "s", ("t", "a"): "t"})
    m = minimize(d)
    assert len(m.states) == 1


def test_minimize_idempotent():
    rng = random.Random(73)
    from randgen import random_reduced_pdfa

    for _ in range(20):
        d, root = random_reduced_pdfa(rng, rng.randint(1, 5))
        m, rep = quotient(d)
        assert minimize(m) == m
        assert is_reduced(m)
        for p in d.states:
            ok, _ = iso_rooted(d, p, m, rep[p])
            assert ok


def test_compress_handles_mnfa_style_labels():
    # Labels play no role in compression; only the letters matter.
    t = unfold_mnfa(samples.astar_bstar_mnfa(), "p", 3)
    d, root = compress_finite_tree(t)
    assert disc_equal_rooted(unfold_pdfa(d, root, 3), t)
