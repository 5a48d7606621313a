import random
from collections import Counter

import pytest

import samples
from cftree import (
    DiscTree,
    InvolutiveAlphabet,
    NondeterministicTreeError,
    PDfa,
    UnknownStateError,
    compress_finite_tree,
    disc_equal_rooted,
    involutive_closure,
    is_reduced,
    iso_rooted,
    language_classes,
    minimize,
    quotient,
    reachable_states,
    unfold_mnfa,
    unfold_pdfa,
)
from cftree.automata import _build_index
from oracles import quotient_by_names
from randgen import random_involutive_tree, random_pdfa, random_reduced_pdfa


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


def test_quotient_matches_renaming_oracle():
    # Random and reduced pDFAs, a third over an alphabet with a self-inverse
    # letter and a quarter with a second part unreachable from the first;
    # the quotient's index is checked against one built from its decoded map.
    rng = random.Random(29)
    self_inverse = InvolutiveAlphabet({"a", "a^-1", "c"}, {"a": "a^-1", "a^-1": "a", "c": "c"})
    seen = Counter()
    for i in range(300):
        alphabet = self_inverse if i % 3 == 0 else involutive_closure(["a", "b"])
        parts = []
        for _ in range(2 if i % 4 == 0 else 1):
            if rng.random() < 0.5:
                d, _ = random_pdfa(rng, rng.randint(1, 12), alphabet, density=rng.random())
            else:
                d, _ = random_reduced_pdfa(rng, rng.randint(1, 12), alphabet, extra_density=rng.random())
            parts.append(d)
        if len(parts) == 2:  # the second part's states renamed apart
            delta = dict(parts[0].delta)
            delta.update(((f"t{p}", x), f"t{q}") for (p, x), q in parts[1].delta.items())
            d = PDfa(parts[0].states | {f"t{p}" for p in parts[1].states}, alphabet, delta)
        m, rep = quotient(d)
        ix = m._indexed()
        want_m, want_rep = quotient_by_names(d)
        assert m == want_m and rep == want_rep
        assert ix.names == sorted(m.states)
        built = _build_index(ix.names, m.alphabet, m.delta)
        assert (ix.succ, ix.masks) == (built.succ, built.masks)
        seen["merged" if len(m.states) < len(d.states) else "kept"] += 1
        seen["unreachable"] += len(reachable_states(d, "s0")) < len(d.states)
        seen["self-inverse"] += alphabet is self_inverse
    assert min(seen.values()) >= 20, seen


def test_quotient_rejects_a_state_only_transitions_name():
    al = involutive_closure(["a"])
    with pytest.raises(UnknownStateError, match="'ghost'"):
        quotient(PDfa({"p"}, al, {("p", "a"): "ghost"}))


def test_compress_handles_mnfa_style_labels():
    # Labels play no role in compression; only the letters matter.
    t = unfold_mnfa(samples.astar_bstar_mnfa(), "p", 3)
    d, root = compress_finite_tree(t)
    assert disc_equal_rooted(unfold_pdfa(d, root, 3), t)
