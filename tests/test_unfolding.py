import random
from collections import Counter

import pytest

import samples
from cftree import (
    DiscTree,
    MaterializationLimitError,
    MNfa,
    NondeterministicTreeError,
    PDfa,
    RadiusMismatchError,
    Transition,
    UnknownNodeError,
    UnknownStateError,
    compress_finite_tree,
    disc_equal_rooted,
    end_cone,
    export_dot,
    involutive_closure,
    pdfa_to_mnfa,
    is_reduced,
    nondeterministic_vertex,
    reroot_disc,
    truncate,
    unfold_mnfa,
    unfold_pdfa,
    unfolding,
)
from cftree.jsonio import alphabet_to_doc, automaton_to_json, tree_from_doc, tree_to_doc, tree_to_json
from oracles import (
    canonical_forms_by_handle,
    compress_finite_tree_by_delta,
    compress_finite_tree_by_views,
    dumps_stdlib,
    end_cone_by_views,
    export_dot_by_views,
    labeled_iso_brute,
    labeled_iso_recursive,
    language_upto,
    nondeterministic_vertex_by_walk,
    nondeterministic_vertex_sorted,
    reroot_disc_by_views,
    sorted_nodes_by_walk,
    tree_from_doc_by_fields,
    tree_to_doc_by_views,
    truncate_by_views,
    unfold_mnfa_by_words,
    unfold_pdfa_by_words,
)
from randgen import (
    random_involutive_tree,
    random_labeled_disc,
    random_pdfa,
    random_reduced_pdfa,
    shuffled_relabeled_copy,
)


def w(text):
    return tuple(text.split()) if text else ()


def test_unfold_two_loop_mnfa_is_complete_binary():
    t = unfold_mnfa(samples.one_state_two_loops(), "p", 2)
    assert len(t) == 7
    assert set(t.labels.values()) == {"p"}
    assert {a for _, a, _ in t.down_edges()} == {"a"}
    assert sorted(t.level.values()) == [0, 1, 1, 2, 2, 2, 2]


def test_unfold_radius_zero():
    t = unfold_mnfa(samples.astar_bstar_mnfa(), "p", 0)
    assert len(t) == 1 and t.labels[t.root] == "p"
    assert list(t.down_edges()) == []


def test_unfold_mnfa_radius_one_labels():
    t = unfold_mnfa(samples.astar_bstar_mnfa(), "p", 1)
    assert sorted(t.labels.values()) == ["p", "p", "q"]
    assert sorted(a for _, a, _ in t.down_edges()) == ["a", "b"]


def test_unfold_pdfa_words_and_labels():
    t = unfold_pdfa(samples.astar_bstar_pdfa(), "p", 2)
    expect = {
        (): "p",
        w("a"): "p",
        w("b"): "q",
        w("a a"): "p",
        w("a b"): "q",
        w("b b"): "q",
    }
    assert t.labels == expect


def test_unfold_pdfa_ray_is_chain():
    t = unfold_pdfa(samples.ray(), "u", 3)
    assert sorted(t.nodes, key=len) == [(), w("a"), w("a a"), w("a a a")]
    assert t.height() == t.radius == 3
    leaf = unfold_pdfa(samples.ray_from_interior(), "z", 3)
    assert leaf.height() == 0 and leaf.radius == 3


def test_language_upto_examples():
    d = samples.astar_bstar_pdfa()
    assert language_upto(d, "p", 2) == {(), w("a"), w("b"), w("a a"), w("a b"), w("b b")}
    assert language_upto(d, "p", 0) == {()}
    assert language_upto(d, "q", 2) == {(), w("b"), w("b b")}


def test_language_recursion_identity():
    rng = random.Random(5)
    for _ in range(30):
        d, root = random_reduced_pdfa(rng, rng.randint(1, 4))
        for p in sorted(d.states):
            for ell in range(4):
                expanded = {()}
                for a in d.out_set(p):
                    expanded |= {(a,) + u for u in language_upto(d, d.delta[(p, a)], ell)}
                assert expanded == language_upto(d, p, ell + 1)


def test_disc_equal_identity_and_radius_mismatch():
    t = unfold_pdfa(samples.astar_bstar_pdfa(), "p", 2)
    assert disc_equal_rooted(t, t)
    assert disc_equal_rooted(t, t, use_labels=True)
    with pytest.raises(RadiusMismatchError):
        disc_equal_rooted(t, unfold_pdfa(samples.astar_bstar_pdfa(), "p", 1))


def test_disc_equal_p_vs_q_fails_at_radius_one():
    d = samples.astar_bstar_pdfa()
    assert not disc_equal_rooted(unfold_pdfa(d, "p", 1), unfold_pdfa(d, "q", 1))


def test_disc_equal_modulo_label_renaming():
    t = unfold_mnfa(samples.one_state_two_loops(), "p", 2)
    renamed = DiscTree(
        t.radius,
        t.root,
        {v: "r" for v in t.nodes},
        t.children,
        t.alphabet,
    )
    assert disc_equal_rooted(t, renamed, use_labels=True)


def test_disc_equal_labels_respect_bijection():
    # Same shapes but label patterns that no bijection can align.
    al = involutive_closure(["a"])
    mk = lambda labels: DiscTree(
        2,
        "r",
        {"r": "z", "u1": labels[0], "u2": labels[1], "c1": labels[2], "c2": labels[3]},
        {"r": (("a", "u1"), ("a", "u2")), "u1": (("a", "c1"),), "u2": (("a", "c2"),)},
        al,
    )
    x = mk(["p", "q", "p", "q"])  # p over p, q over q
    y = mk(["p", "q", "q", "p"])  # p over q, q over p
    assert disc_equal_rooted(x, y)  # shapes agree
    assert not disc_equal_rooted(x, y, use_labels=True)
    assert disc_equal_rooted(x, mk(["q", "p", "q", "p"]), use_labels=True)


def test_disc_equal_labels_backtracks_into_matched_sibling():
    # One tree with each node's children listed in another order.  Matching
    # n1 with n1 first pairs n2 with y's first child n3 (label q with r);
    # the later sibling n4 then needs r -> r, which only the other pairing
    # inside n1 (n2 with n2) allows, so the search must reopen a subtree it
    # has already matched.
    al = involutive_closure(["a"])
    labels = {"r": "p", "n1": "p", "n2": "q", "n3": "r", "n4": "r", "n5": "p"}
    x = DiscTree(2, "r", labels, {
        "r": (("a", "n1"), ("a", "n4")),
        "n1": (("a", "n2"), ("a", "n3")),
        "n4": (("a", "n5"),),
    }, al)
    y = DiscTree(2, "r", labels, {
        "r": (("a", "n4"), ("a", "n1")),
        "n1": (("a", "n3"), ("a", "n2")),
        "n4": (("a", "n5"),),
    }, al)
    assert disc_equal_rooted(x, y, use_labels=True)
    assert labeled_iso_brute(x, y)
    assert not labeled_iso_recursive(x, y)  # the matcher this one replaced


def test_labeled_disc_match_agrees_with_brute_force():
    rng = random.Random(29)
    verdicts = Counter()
    reopened = 0  # cases that need a matched subtree reopened
    for i in range(2000):
        x = random_labeled_disc(rng, 12)
        y = shuffled_relabeled_copy(rng, x, perturb=i % 2 == 1)
        expect = labeled_iso_brute(x, y)
        assert disc_equal_rooted(x, y, use_labels=True) == expect, (x.labels, x.children)
        assert disc_equal_rooted(y, x, use_labels=True) == expect
        verdicts[expect] += 1
        reopened += labeled_iso_recursive(x, y) != expect
    assert min(verdicts[True], verdicts[False]) >= 500, verdicts
    assert reopened > 0


def test_labeled_disc_match_agrees_with_recursive_matcher_on_pdfa_discs():
    # No two children of a pDFA-disc node share a letter, which is where the
    # recursive matcher is complete.
    rng = random.Random(31)
    verdicts = Counter()
    for i in range(200):
        d, root = random_reduced_pdfa(rng, rng.randint(1, 5))
        x = unfold_pdfa(d, root, rng.randint(1, 5))
        y = shuffled_relabeled_copy(rng, x, perturb=i % 2 == 1)
        expect = labeled_iso_recursive(x, y)
        assert disc_equal_rooted(x, y, use_labels=True) == expect
        assert labeled_iso_brute(x, y) == expect
        verdicts[expect] += 1
    assert min(verdicts[True], verdicts[False]) >= 50, verdicts


def test_deep_ray_has_no_depth_limit():
    # Every disc operation on a 2001-node chain, far past Python's recursion
    # limit if any of them recursed once per level.
    t = unfold_pdfa(samples.ray(), "u", 2000)
    mid, tip = w("a") * 1000, w("a") * 2000
    assert disc_equal_rooted(t, t)
    assert disc_equal_rooted(t, t, use_labels=True)
    relabel = lambda f: DiscTree(t.radius, t.root, {v: f(v) for v in t.nodes}, t.children, t.alphabet)
    x = relabel(lambda v: str(len(v) % 3))
    assert disc_equal_rooted(x, relabel(lambda v: f"L{len(v) % 3}"), use_labels=True)
    assert not disc_equal_rooted(x, relabel(lambda v: "tip" if v == tip else str(len(v) % 3)), use_labels=True)
    assert len(end_cone(t, mid)) == 1001
    assert len(reroot_disc(t, mid)) == 2001
    assert len(truncate(t, 1000)) == 1001
    assert nondeterministic_vertex(t) is None
    d, root = compress_finite_tree(t)
    assert len(d.states) == 2001 and root in d.states
    assert export_dot(t).count("->") == 2000
    assert len(tree_to_doc(t)["nodes"]) == 2001
    # The same at radius 20000, on node numbers alone: the word-keyed views
    # would hold every word, in memory quadratic in the depth, so none is
    # read.  The labeled copies are built through tree documents, where the
    # node listed i-th is the one at level i.
    t = unfold_pdfa(samples.ray(), "u", 20000)
    doc = tree_to_doc(t)
    assert tree_to_json(t).count('"label": "a"') == 20000
    assert [nd["id"] for nd in doc["nodes"][:3]] == ["v0", "v1", "v2"]

    def relabeled(f):
        copy = {**doc, "nodes": [{"id": nd["id"], "label": f(i)} for i, nd in enumerate(doc["nodes"])]}
        return tree_from_doc(copy)

    x = relabeled(lambda i: str(i % 3))
    assert disc_equal_rooted(t, t) and disc_equal_rooted(t, x)
    assert disc_equal_rooted(t, t, use_labels=True)
    assert not disc_equal_rooted(t, x, use_labels=True)
    assert disc_equal_rooted(x, relabeled(lambda i: f"L{i % 3}"), use_labels=True)
    assert not disc_equal_rooted(x, relabeled(lambda i: "tip" if i == 20000 else str(i % 3)), use_labels=True)
    assert nondeterministic_vertex(t) is None
    d, root = compress_finite_tree(t)
    assert len(d.states) == 20001 and root in d.states
    mid = w("a") * 10000
    cone, star = end_cone(t, mid), reroot_disc(t, mid)
    assert len(cone) == 10001 and cone.radius == 10000 and disc_equal_rooted(cone, truncate(t, 10000))
    assert len(star) == 20001 and star.radius == 10000
    assert star.children_of(mid) == (("a^-1", w("a") * 9999), ("a", w("a") * 10001))
    assert nondeterministic_vertex(star) is None
    assert len(compress_finite_tree(star)[0].states) == 20000  # both ends are leaves: one shape
    assert t._names is None and cone._names is None and star._names is None  # no word list was built


def test_disc_label_coherence_of_unfoldings():
    # Nodes with equal labels generate isomorphic end-cones at the shared radius.
    rng = random.Random(11)
    for _ in range(15):
        d, root = random_reduced_pdfa(rng, rng.randint(1, 4))
        t = unfold_pdfa(d, root, 4)
        by_label = {}
        for v in t.sorted_nodes():
            by_label.setdefault(t.labels[v], []).append(v)
        for nodes in by_label.values():
            first = nodes[0]
            for v in nodes[1:3]:
                r = min(t.radius - t.level[first], t.radius - t.level[v])
                x = truncate(end_cone(t, first), r)
                y = truncate(end_cone(t, v), r)
                assert disc_equal_rooted(x, y, use_labels=True)


def test_disc_language_agreement():
    rng = random.Random(13)
    for _ in range(25):
        d1, r1 = random_reduced_pdfa(rng, rng.randint(1, 4))
        d2, r2 = random_reduced_pdfa(rng, rng.randint(1, 4))
        for ell in (0, 1, 3):
            same_lang = language_upto(d1, r1, ell) == language_upto(d2, r2, ell)
            same_disc = disc_equal_rooted(
                unfold_pdfa(d1, r1, ell), unfold_pdfa(d2, r2, ell)
            )
            assert same_lang == same_disc


def test_reduced_unfoldings_are_deterministic():
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        d, root = random_pdfa(rng, rng.randint(1, 4), density=0.3)
        if is_reduced(d):
            t = unfold_pdfa(d, root, 2 * len(d.states))
            assert nondeterministic_vertex(t) is None
            checked += 1
        else:
            t = unfold_pdfa(d, root, len(d.states) + 1)
            assert nondeterministic_vertex(t) is not None
    assert checked >= 3


def test_nondeterministic_vertex_on_parallel_loops():
    t = unfold_mnfa(samples.one_state_two_loops(), "p", 1)
    assert nondeterministic_vertex(t) == ()


def test_nondeterministic_vertex_matches_sorted_scan():
    # The unsorted scan returns the node the scan in sorted order finds
    # first, also when several nodes on one level are bad and when node ids
    # are renamed and listed in another order.
    rng = random.Random(37)
    found = Counter()
    for i in range(600):
        kind = i % 3
        if kind == 0:
            t = random_labeled_disc(rng, 14)
        elif kind == 1:
            t = random_involutive_tree(rng, 30)
        else:
            d, root = random_pdfa(rng, rng.randint(1, 4), density=0.3)
            t = unfold_pdfa(d, root, rng.randint(0, 4))
        for x in (t, shuffled_relabeled_copy(rng, t)):
            expect = nondeterministic_vertex_sorted(x)
            assert nondeterministic_vertex(x) == expect
            found[expect is None] += 1
    assert min(found.values()) >= 300, found


def test_constructor_views_come_from_its_own_lists():
    # The constructor reads its dicts once: a leaf listed with ``()`` and one
    # left out give equal discs, and later changes to the dicts change nothing.
    labels = {"r": "p", "c": "p"}
    children = {"r": (("a", "c"),), "c": ()}
    t = DiscTree(1, "r", labels, children, samples.AL_A)
    assert t == truncate(t, 1) == DiscTree(1, "r", dict(labels), {"r": (("a", "c"),)}, samples.AL_A)
    labels["x"] = "q"
    children["c"] = (("a", "x"),)
    assert len(t) == 2 and list(t.nodes) == ["r", "c"] == t.sorted_nodes()
    assert t.labels == {"r": "p", "c": "p"} and t.children == {"r": (("a", "c"),)}
    assert t.level == {"r": 0, "c": 1}


@pytest.mark.parametrize(
    "radius, root, labels, children, message",
    [
        (-1, "r", {"r": "p"}, {}, "radius must be non-negative"),
        (1, "x", {"r": "p"}, {}, "root must be a labeled node"),
        (1, "r", {"r": "p", "c": "p"}, {"r": (("a", "c"), ("a^-1", "c"))}, "node 'c' has two parents"),
        (1, "r", {"r": "p"}, {"r": (("a", "c"),)}, "child node 'c' is not labeled"),
        (1, "r", {"r": "p", "c": "p"}, {}, "some labeled nodes are not reachable from the root"),
        (0, "r", {"r": "p", "c": "p"}, {"r": (("a", "c"),)}, "node level exceeds the declared radius"),
        (1, "r", {"r": "x", "c": "y"}, {"r": (("zz", "c"),)}, "letter 'zz' is not in the alphabet"),
        (1, "r", {"r": "x"}, {"ghost": (("a", "r"),)}, "parent node 'ghost' is not labeled"),
    ],
    ids=[
        "negative-radius",
        "unlabeled-root",
        "two-parents",
        "unlabeled-child",
        "unreachable",
        "too-deep",
        "unknown-letter",
        "unlabeled-parent",
    ],
)
def test_constructor_rejects_what_is_no_disc(radius, root, labels, children, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DiscTree(radius, root, labels, children, samples.AL_A)


def test_constructor_radius_is_an_int():
    # A float or bool radius would be written to a tree document that its
    # reader rejects, or that is not JSON.
    for radius in (2.5, True, None, "1"):
        with pytest.raises(TypeError, match="^radius must be an int, not "):
            DiscTree(radius, "r", {"r": "p"}, {}, samples.AL_A)
    assert tree_to_json(DiscTree(1, "r", {"r": "p"}, {}, samples.AL_A)).startswith('{\n  "radius": 1,')


def test_end_cone_of_root_is_whole_tree():
    t = unfold_pdfa(samples.astar_bstar_pdfa(), "p", 2)
    assert end_cone(t, t.root) == t


def test_end_cone_of_b_node():
    t = unfold_pdfa(samples.astar_bstar_pdfa(), "p", 2)
    cone = end_cone(t, w("b"))
    assert cone.radius == 1
    assert set(cone.nodes) == {w("b"), w("b b")}
    assert [cone.labels[v] for v in sorted(cone.nodes, key=len)] == ["q", "q"]


def test_end_cone_of_leaf_and_unknown_node():
    t = unfold_pdfa(samples.astar_bstar_pdfa(), "p", 2)
    leaf = end_cone(t, w("a a"))
    assert len(leaf) == 1 and leaf.radius == 0
    with pytest.raises(UnknownNodeError):
        end_cone(t, w("z"))


def test_reroot_disc_at_root_is_identity():
    t = unfold_pdfa(samples.astar_bstar_pdfa(), "p", 2)
    assert reroot_disc(t, t.root) == t


def test_reroot_disc_line_middle():
    t = unfold_pdfa(samples.ray(), "u", 2)  # chain eps - a - aa
    star = reroot_disc(t, w("a"))
    assert star.radius == 1
    assert set(star.nodes) == {(), w("a"), w("a a")}
    kids = dict((c, a) for a, c in star.children[w("a")])
    assert kids == {(): "a^-1", w("a a"): "a"}


def test_reroot_disc_round_trip_truncates():
    t = unfold_pdfa(samples.astar_bstar_pdfa(), "p", 3)
    once = reroot_disc(t, w("a"))
    back = reroot_disc(once, t.root)
    assert disc_equal_rooted(back, truncate(t, back.radius), use_labels=True)
    with pytest.raises(RadiusMismatchError, match="cannot extend a disc of radius 3 to 4"):
        truncate(t, 4)
    with pytest.raises(ValueError, match="radius must be non-negative"):
        truncate(t, -1)


def test_truncate_radius_is_an_int():
    t = unfold_pdfa(samples.astar_bstar_pdfa(), "p", 2)
    for radius in (1.0, 2.5, False, None):
        with pytest.raises(TypeError, match="^radius must be an int, not "):
            truncate(t, radius)
    with pytest.raises(ValueError, match="^radius must be non-negative$"):
        truncate(t, -1)


def test_unfold_pdfa_radius_is_an_int():
    # A float radius is no level the walk stops at, so it is refused before
    # the walk starts, not by the node budget.
    for radius in (2.5, 3.0, True, None):
        with pytest.raises(TypeError, match="^radius must be an int, not "):
            unfold_pdfa(samples.ray(), "u", radius, max_nodes=10)
    with pytest.raises(ValueError, match="^radius must be non-negative$"):
        unfold_pdfa(samples.ray(), "u", -1)
    with pytest.raises(UnknownStateError):  # the state is checked first
        unfold_pdfa(samples.ray(), "ghost", 2.5)


def test_unfold_mnfa_radius_is_an_int():
    m = samples.one_state_two_loops()
    for radius in (2.5, 3.0, True, None):
        with pytest.raises(TypeError, match="^radius must be an int, not "):
            unfold_mnfa(m, "p", radius, max_nodes=10)
    with pytest.raises(ValueError, match="^radius must be non-negative$"):
        unfold_mnfa(m, "p", -1)
    with pytest.raises(UnknownStateError):
        unfold_mnfa(m, "ghost", 2.5)


def test_materialization_cap():
    with pytest.raises(MaterializationLimitError):
        unfold_mnfa(samples.one_state_two_loops(), "p", 30, max_nodes=1000)


def test_unfold_budget_boundary_is_the_disc_size():
    full_binary = PDfa({"p"}, samples.AL_AB, {("p", "a"): "p", ("p", "b"): "p"})
    for unfold, oracle, aut in (
        (unfold_pdfa, unfold_pdfa_by_words, full_binary),
        (unfold_mnfa, unfold_mnfa_by_words, samples.one_state_two_loops()),
    ):
        size = len(unfold(aut, "p", 6))
        assert size == 127
        for f in (unfold, oracle):
            assert len(f(aut, "p", 6, max_nodes=size)) == size
            with pytest.raises(MaterializationLimitError, match=f"^unfolding would exceed {size - 1} nodes$"):
                f(aut, "p", 6, max_nodes=size - 1)
    # The budget is checked after each expanded node, so radius 0 keeps the
    # root under any budget, and radius 1 or more exceeds a budget of 0 or
    # less once the root is expanded, even when it has no children; such a
    # budget is not taken for no budget.  Nor is None: it is no int, and
    # comparing the node count with it raises TypeError.
    leaf = PDfa({"p"}, samples.AL_A, {})
    for unfold, oracle, aut in (
        (unfold_pdfa, unfold_pdfa_by_words, full_binary),
        (unfold_pdfa, unfold_pdfa_by_words, leaf),
        (unfold_mnfa, unfold_mnfa_by_words, samples.one_state_two_loops()),
        (unfold_mnfa, unfold_mnfa_by_words, pdfa_to_mnfa(leaf)),
    ):
        for f in (unfold, oracle):
            for budget in (0, -1):
                assert len(f(aut, "p", 0, max_nodes=budget)) == 1
                for radius in (1, 6):
                    with pytest.raises(MaterializationLimitError, match=f"^unfolding would exceed {budget} nodes$"):
                        f(aut, "p", radius, max_nodes=budget)
            assert len(f(aut, "p", 0, max_nodes=None)) == 1
            for radius in (1, 6):
                with pytest.raises(TypeError):
                    f(aut, "p", radius, max_nodes=None)


def test_every_disc_but_a_loaded_one_is_built_by_one_walk(monkeypatch):
    calls = []
    walk = unfolding._walk

    def counted(*args):
        calls.append(args[0])
        return walk(*args)

    monkeypatch.setattr(unfolding, "_walk", counted)
    t = unfold_pdfa(samples.astar_bstar_pdfa(), "p", 3)
    builds = [
        lambda: unfold_pdfa(samples.astar_bstar_pdfa(), "p", 3),
        lambda: unfold_mnfa(samples.astar_bstar_mnfa(), "p", 3),
        lambda: DiscTree(t.radius, t.root, t.labels, t.children, t.alphabet),
        lambda: end_cone(t, w("a")),
        lambda: reroot_disc(t, w("a b")),
    ]
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 1
    calls.clear()
    tree_from_doc(tree_to_doc(t))
    truncate(t, 1)
    assert not calls
    assert not hasattr(unfolding, "_unfold")


def test_unfold_budget_and_unknown_states_alike_for_both_kinds():
    full_binary = PDfa({"p"}, samples.AL_AB, {("p", "a"): "p", ("p", "b"): "p"})
    for unfold, aut in ((unfold_mnfa, samples.one_state_two_loops()), (unfold_pdfa, full_binary)):
        with pytest.raises(MaterializationLimitError, match="unfolding would exceed 1000 nodes"):
            unfold(aut, "p", 30, max_nodes=1000)
        with pytest.raises(UnknownStateError):
            unfold(aut, "ghost", 0)
    # An edge into a state the automaton does not list fails once it is
    # followed, not before.
    dangling_pdfa = PDfa({"p"}, samples.AL_A, {("p", "a"): "zz"})
    dangling_mnfa = MNfa({"p"}, samples.AL_A, [Transition(0, "p", "a", "zz")])
    for unfold, aut in ((unfold_pdfa, dangling_pdfa), (unfold_mnfa, dangling_mnfa)):
        assert len(unfold(aut, "p", 1)) == 2
        with pytest.raises(UnknownStateError, match="'zz'"):
            unfold(aut, "p", 2)
    # Two children of one mNFA node would share a run.
    twice = MNfa({"p"}, samples.AL_A, [Transition(0, "p", "a", "p"), Transition(0, "p", "a^-1", "p")])
    with pytest.raises(ValueError, match="transition id 0 is used twice from state 'p'"):
        unfold_mnfa(twice, "p", 1)


def test_export_dot_single_node():
    t = unfold_pdfa(samples.ray(), "u", 0)
    dot = export_dot(t)
    assert dot.startswith("digraph {")
    assert dot.count("->") == 0
    with pytest.raises(TypeError, match="cannot export dict as DOT"):
        export_dot({})


def test_export_dot_pdfa_counts():
    dot = export_dot(samples.astar_bstar_pdfa())
    assert dot.count("->") == 3
    assert dot.count('"p"') + dot.count('"q"') >= 2


def test_export_dot_tree_counts_one_edge_per_pair():
    t = unfold_mnfa(samples.one_state_two_loops(), "p", 2)
    dot = export_dot(t)
    assert dot.count("->") == 6  # 7 nodes, one drawn edge per involutive pair


def test_export_dot_deterministic():
    t = unfold_pdfa(samples.astar_bstar_pdfa(), "p", 3)
    assert export_dot(t) == export_dot(unfold_pdfa(samples.astar_bstar_pdfa(), "p", 3))
    m = samples.astar_bstar_mnfa()
    assert export_dot(m) == export_dot(samples.astar_bstar_mnfa())


class _Step(str):
    def __repr__(self):
        return str(self)


def test_sorted_nodes_is_breadth_first_in_child_order():
    # Word discs of pDFAs (str steps) and mNFAs (int steps of one to three
    # digits, some negative, so one step's repr is a prefix of another's),
    # their end-cones, re-rooted discs and truncations, discs with int nodes
    # and loaded discs with string nodes all list their nodes in one
    # breadth-first walk over the ``children`` view.  Children come by
    # letter in a pDFA unfolding, by transition id in an mNFA unfolding and
    # by (letter, id) in a loaded disc; a re-rooted disc lists the new
    # root's old parent first.
    rng = random.Random(67)
    trees = [unfold_pdfa(samples.ray(), "u", 2000)]
    sorted_by = []
    for _ in range(60):
        d, root = random_pdfa(rng, rng.randint(1, 6))
        m = pdfa_to_mnfa(d)
        tids = rng.sample([-12, -1, *range(130)], len(m.transitions))
        m = MNfa(m.states, m.alphabet, [Transition(i, *t.triple()) for i, t in zip(tids, m.transitions)])
        tp, tm = unfold_pdfa(d, root, rng.randint(0, 5)), unfold_mnfa(m, root, rng.randint(0, 4))
        sorted_by += [(tp, lambda e: e[0]), (tm, lambda e: e[1][-1])]
        for t in (tp, tm):
            v = rng.choice(list(t.nodes))
            loaded, moved = tree_from_doc(tree_to_doc(t)), reroot_disc(t, v)
            trees += [t, end_cone(t, v), moved, truncate(t, t.radius // 2), loaded]
            sorted_by.append((loaded, lambda e: e))
            if v != t.root and moved.radius > 0:
                up, a = t.parent[v]
                assert moved.children[v][0] == (t.alphabet.inv(a), up)
        trees += [random_involutive_tree(rng, 30), random_labeled_disc(rng)]
    for t, key in sorted_by:
        for kids in t.children.values():
            keys = list(map(key, kids))
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
    # Handles of other types are never inspected: the children come in the
    # given order, although "(x y,)" sorts before "(x,)" by repr.
    x, x_y = _Step("x"), _Step("x y")
    trees.append(DiscTree(1, (), {(): "r", (x,): "s", (x_y,): "s"}, {(): (("a", (x,)), ("b", (x_y,)))}, samples.AL_AB))
    assert trees[-1].sorted_nodes()[1:] == [(x,), (x_y,)]
    kinds = Counter()
    for t in trees:
        assert t.sorted_nodes() == sorted_nodes_by_walk(t)
        kinds[type(t.root).__name__] += 1
    assert kinds["tuple"] >= 300 and kinds["str"] >= 100 and kinds["int"] >= 100, kinds


# Letters whose ``repr`` order differs from their value order: "x" < "x'" as
# strings, but repr("x'") starts with a double quote, which sorts first.
AL_X = involutive_closure(["x", "x'"])


def _with_parallel_and_negative_tids(rng, d):
    """``d`` as an mNFA with a few parallel copies of its transitions and
    ids drawn from -12 to 129, so that some ids' reprs are prefixes of others'."""
    triples = [t.triple() for t in pdfa_to_mnfa(d).transitions]
    triples += [rng.choice(triples) for _ in range(rng.randint(1, 2))] if triples else []
    tids = rng.sample([-12, -1, *range(130)], len(triples))
    return MNfa(d.states, d.alphabet, [Transition(i, *tr) for i, tr in zip(tids, triples)])


def _shuffled_doc(rng, t):
    """A tree document of ``t`` with node ids ``n0``, ``n1``, .. in random
    order, rows shuffled and each edge in a random orientation."""
    order = list(t.labels)
    rng.shuffle(order)
    ids = {v: f"n{i}" for i, v in enumerate(order)}
    nodes = [{"id": ids[v], "label": lab} for v, lab in t.labels.items()]
    edges = [
        {"from": ids[v], "label": a, "to": ids[c]}
        if rng.random() < 0.5
        else {"from": ids[c], "label": t.alphabet.inv(a), "to": ids[v]}
        for v, a, c in t.down_edges()
    ]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    alphabet = alphabet_to_doc(t.alphabet)
    return {"radius": t.radius, "root": ids[t.root], "alphabet": alphabet, "nodes": nodes, "edges": edges}


def _compressed(compress, t):
    try:
        d, root = compress(t)
    except NondeterministicTreeError as e:
        return str(e)
    return automaton_to_json(d, root=root)


def _check_against_views(new, old, order):
    """``new`` writes, draws, compresses and scans as ``old`` does through
    its dict views with the nodes in ``order``; the views come last, so the
    operations run before any word is built."""
    assert nondeterministic_vertex(new) == nondeterministic_vertex_by_walk(old)
    got = _compressed(compress_finite_tree, new)
    assert got == _compressed(compress_finite_tree_by_views, old) == _compressed(compress_finite_tree_by_delta, new)
    assert tree_to_json(new) == dumps_stdlib(tree_to_doc_by_views(old, order))
    assert export_dot(new) == export_dot_by_views(old, order)
    assert new.sorted_nodes() == order == sorted_nodes_by_walk(old)
    assert (new.labels, new.children, new.level, new.parent) == (old.labels, old.children, old.level, old.parent)
    return got.startswith("{")


def test_disc_operations_match_word_oracles():
    # pDFA and mNFA discs unfolded on node numbers against word-tuple discs
    # built through the constructor, loaded trees against the field-by-field
    # reader, and the end-cones, re-rooted discs and truncations of both,
    # byte for byte; those of the new discs also against the ones built
    # from the old discs' views.
    rng = random.Random(71)
    discs = []
    for i in range(120):
        d, root = random_pdfa(rng, rng.randint(1, 5), AL_X if i % 2 else None)
        m = _with_parallel_and_negative_tids(rng, d)
        r, s = rng.randint(0, 5), rng.randint(0, 3)
        discs.append(("pdfa", unfold_pdfa(d, root, r), unfold_pdfa_by_words(d, root, r)))
        discs.append(("mnfa", unfold_mnfa(m, root, s), unfold_mnfa_by_words(m, root, s)))
    for i in range(120):
        t = random_labeled_disc(rng, 14) if i % 3 == 2 else random_involutive_tree(rng, 30, AL_X if i % 2 else None)
        doc = _shuffled_doc(rng, t)
        discs.append(("loaded", tree_from_doc(doc), tree_from_doc_by_fields(doc)))
    loaded_ids = {v for kind, _, old in discs if kind == "loaded" for v in old.nodes}
    assert {"n2", "n10"} <= loaded_ids
    counts = Counter()
    for kind, new, old in discs:
        v = rng.choice(sorted_nodes_by_walk(old))
        cut = rng.randint(0, new.radius)
        derived = [(end_cone(new, v), end_cone(old, v)), (reroot_disc(new, v), reroot_disc(old, v))]
        derived.append((truncate(new, cut), truncate(old, cut)))
        by_views = [end_cone_by_views(old, v), reroot_disc_by_views(old, v), truncate_by_views(old, cut)]
        counts[kind, _check_against_views(new, old, sorted_nodes_by_walk(old))] += 1
        for (x, y), z in zip(derived, by_views):
            _check_against_views(x, y, sorted_nodes_by_walk(y))
            assert x == z and x.sorted_nodes() == z.sorted_nodes()
    assert min(counts.values()) >= 20 and len(counts) == 6, counts

    verdicts = Counter()
    by_radius = {}
    for kind, new, old in discs:
        small = kind != "mnfa" or len(old) <= 15  # brute force is factorial in equal-letter siblings
        copy = shuffled_relabeled_copy(rng, old, perturb=rng.random() < 0.5)
        partners = [(copy, copy)] + [(x, y) for x, y in by_radius.get(new.radius, [])[-2:]]
        by_radius.setdefault(new.radius, []).append((new, old))
        for x, y in partners:
            fo, fy = canonical_forms_by_handle([old, y])
            shape = fo[old.root] == fy[y.root]
            assert disc_equal_rooted(new, x) == shape
            if small and (shape or y is copy):
                expect = labeled_iso_brute(old, y)
                assert disc_equal_rooted(new, x, use_labels=True) == expect
                assert disc_equal_rooted(x, new, use_labels=True) == expect
                verdicts[kind, expect] += 1
    assert min(verdicts.values()) >= 20 and len(verdicts) == 6, verdicts
