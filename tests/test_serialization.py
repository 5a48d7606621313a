import copy
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samples
from cftree import (
    DiscTree,
    Gap2Instance,
    MNfa,
    PDfa,
    SchemaError,
    Transition,
    disc_equal_rooted,
    involutive_closure,
    pdfa_to_mnfa,
    quotient,
    reroot_along_word,
    reroot_disc,
    unfold_mnfa,
    unfold_pdfa,
)
from cftree.automata import _build_index
from cftree.jsonio import (
    automaton_from_doc,
    automaton_to_doc,
    automaton_to_json,
    gap2_from_doc,
    gap2_to_doc,
    loads,
    tree_from_doc,
    tree_to_doc,
    tree_to_json,
)
from oracles import automaton_from_doc_by_fields, dumps_by_columns, dumps_stdlib, tree_from_doc_by_fields
from randgen import random_gap2, random_involutive_tree, random_pdfa, random_reduced_pdfa


def test_mnfa_round_trip():
    m = samples.one_state_two_loops()
    doc = loads(automaton_to_json(m, root="p"))
    back, root = automaton_from_doc(doc)
    assert isinstance(back, MNfa)
    assert back == m
    assert root == "p"


def test_pdfa_round_trip():
    d = samples.astar_bstar_pdfa()
    back, root = automaton_from_doc(loads(automaton_to_json(d)))
    assert isinstance(back, PDfa)
    assert back == d
    assert root is None


def test_multi_edges_survive_round_trip():
    m = samples.one_state_two_loops()
    back, _ = automaton_from_doc(automaton_to_doc(m))
    assert len(back.transitions) == 2


def test_unknown_fields_rejected():
    doc = automaton_to_doc(samples.astar_bstar_pdfa())
    doc["color"] = "blue"
    with pytest.raises(SchemaError):
        automaton_from_doc(doc)
    doc = automaton_to_doc(samples.astar_bstar_pdfa())
    doc["alphabet"]["style"] = "fancy"
    with pytest.raises(SchemaError):
        automaton_from_doc(doc)
    doc = automaton_to_doc(samples.astar_bstar_pdfa())
    doc["transitions"][0]["weight"] = 3
    with pytest.raises(SchemaError):
        automaton_from_doc(doc)


def test_missing_fields_rejected():
    doc = automaton_to_doc(samples.astar_bstar_pdfa())
    del doc["states"]
    with pytest.raises(SchemaError):
        automaton_from_doc(doc)


def test_duplicate_state_names_rejected():
    doc = automaton_to_doc(samples.astar_bstar_pdfa())
    doc["states"].append("p")
    for strict in (True, False):
        with pytest.raises(SchemaError, match="duplicate state names"):
            automaton_from_doc(doc, strict=strict)


def test_pdfa_kind_must_be_deterministic():
    doc = automaton_to_doc(samples.one_state_two_loops())
    doc["kind"] = "pdfa"
    with pytest.raises(SchemaError):
        automaton_from_doc(doc)


def test_strict_rejects_dangling_refs():
    doc = automaton_to_doc(samples.astar_bstar_pdfa(), root="p")
    doc["transitions"][0]["to"] = "ghost"
    with pytest.raises(SchemaError):
        automaton_from_doc(doc)
    aut, _ = automaton_from_doc(doc, strict=False)
    assert aut is not None


def test_bad_alphabet_rejected():
    doc = automaton_to_doc(samples.astar_bstar_pdfa())
    doc["alphabet"]["inverse"]["a"] = "b"
    with pytest.raises(SchemaError):
        automaton_from_doc(doc)


def test_bad_json_text():
    with pytest.raises(SchemaError):
        loads("{not json")


def test_tree_round_trip():
    t = unfold_pdfa(samples.astar_bstar_pdfa(), "p", 3)
    back = tree_from_doc(loads(tree_to_json(t)))
    assert disc_equal_rooted(back, t, use_labels=True)


def test_tree_accepts_either_edge_orientation():
    t = unfold_pdfa(samples.ray(), "u", 2)
    doc = tree_to_doc(t)
    e = doc["edges"][0]
    doc["edges"][0] = {"from": e["to"], "label": t.alphabet.inv(e["label"]), "to": e["from"]}
    back = tree_from_doc(doc)
    assert disc_equal_rooted(back, t, use_labels=True)


def test_tree_rejects_disconnected_and_cyclic():
    t = unfold_pdfa(samples.ray(), "u", 2)
    doc = tree_to_doc(t)
    doc["edges"] = doc["edges"][:1]
    with pytest.raises(SchemaError):
        tree_from_doc(doc)
    doc = tree_to_doc(t)
    doc["edges"].append(doc["edges"][0])
    with pytest.raises(SchemaError):
        tree_from_doc(doc)
    doc = tree_to_doc(t)
    doc["radius"] = -1
    with pytest.raises(SchemaError, match="radius must be non-negative"):
        tree_from_doc(doc)


def test_gap2_round_trip():
    g = Gap2Instance(5, frozenset({(0, 1), (1, 4)}))
    assert gap2_from_doc(loads(dumps_stdlib(gap2_to_doc(g)))) == g


def test_gap2_schema_errors():
    with pytest.raises(SchemaError):
        gap2_from_doc({"n": 2})
    with pytest.raises(SchemaError):
        gap2_from_doc({"n": 2, "edges": [[0, 1, 2]]})
    with pytest.raises(SchemaError):
        gap2_from_doc({"n": 2, "edges": [[0, 9]]})


def test_dump_is_deterministic():
    d = samples.astar_bstar_pdfa()
    assert automaton_to_json(d, root="p") == automaton_to_json(d, root="p")


def _documents(seed):
    """Seeded automaton (both kinds), tree and reachability documents."""
    rng = random.Random(seed)
    d, root = random_reduced_pdfa(rng, rng.randint(1, 8))
    yield automaton_to_doc(d, root=root)
    yield automaton_to_doc(pdfa_to_mnfa(d))
    yield automaton_to_doc(random_pdfa(rng, rng.randint(1, 6))[0])
    yield automaton_to_doc(samples.one_state_two_loops(), root="p")
    yield tree_to_doc(unfold_pdfa(d, root, rng.randint(0, 3)))
    yield tree_to_doc(unfold_mnfa(samples.one_state_two_loops(), "p", rng.randint(0, 2)))
    t = random_involutive_tree(rng, 12)
    tree = tree_to_doc(t)
    del tree["alphabet"]
    tree["edges"] = [  # every other edge written child to parent, in reverse order
        {"from": e["to"], "label": t.alphabet.inv(e["label"]), "to": e["from"]} if i % 2 else e
        for i, e in enumerate(reversed(tree["edges"]))
    ]
    yield tree
    yield gap2_to_doc(random_gap2(rng, 8))


_KEYS = ["id", "from", "label", "%s", "100%", "%%d", "é", "\n", 'a"b']
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(["", "\x00", "\x1f\u2028", "😀", "é\\"])
)


def _records(values):
    # Lists of dicts that share one key order, the writer's column case.
    return st.lists(st.sampled_from(_KEYS), min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(
            st.tuples(*[values] * len(keys)).map(lambda vs: dict(zip(keys, vs))), min_size=1, max_size=4
        )
    )


_JSON = st.recursive(
    _SCALARS,
    lambda values: (
        st.lists(values, max_size=4)
        | st.lists(values, max_size=3).map(tuple)
        | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), values, max_size=4)
        | st.dictionaries(st.integers() | st.booleans() | st.none() | st.floats(), values, max_size=3)
        | _records(values)
    ),
    max_leaves=20,
)


@pytest.mark.parametrize(
    "doc",
    [
        {}, [], (), "", 0, -7, 10**30, None, True, 1.5, float("nan"),
        {"a": [], "b": {}, "c": ()}, [[], {}, ()], [{}, {}], [{}, {"a": 1}],
        ("x", 1, ("y",)), [("p", "a"), ("q", "b")],
        {1: "a", 2: "b"}, [{1: "a"}, {1: "b"}], {"k": {None: [1.5, -0.0, float("inf")]}},
        [1.0, 2, "3"], [{"id": 1}, {"id": True}], [{"id": True}, {"id": 1}], [True, 1, False, 0],
        [{"from": "p", "to": "q"}, {"to": "q", "from": "p"}],
        [{"a": 1, "b": 2}, {"a": 1}], [{"a": 1}, {"a": 1, "b": 2}],
        ["é", "\x00\n\t\"\\", "😀", "\u2028"], {"é": "\x1f", "\ud800": "x"},
        [{"%s": 1, "100%": "%d"}, {"%s": 2, "100%": "%%"}],
        [{"a": [{"x": 1}, {"x": 2}]}, {"a": []}], [{"a": {"b": 1}}, {"a": {"b": "c"}}],
        [{"a": [1, 2]}, {"a": ("x",)}],
    ],
)
def test_dumps_matches_stdlib_writer_on_edge_cases(doc):
    assert dumps_by_columns(doc) == dumps_stdlib(doc)


def _written(obj, root=None) -> tuple[str, dict]:
    """What the writer of ``obj``, an automaton or a disc, writes, and the
    dict document of the same."""
    if isinstance(obj, DiscTree):
        return tree_to_json(obj), tree_to_doc(obj)
    return automaton_to_json(obj, root), automaton_to_doc(obj, root)


def _writables(seed):
    """Seeded automata of both kinds, held as a map or as an index, with
    and without a root, and discs unfolded, loaded and re-rooted."""
    rng = random.Random(seed)
    d, root = random_reduced_pdfa(rng, rng.randint(1, 8), extra_density=rng.random())
    loaded = automaton_from_doc(automaton_to_doc(d))[0]
    yield d, root
    yield loaded, None
    yield quotient(d)[0], None
    yield reroot_along_word(loaded, root, ())
    yield pdfa_to_mnfa(d), root
    yield random_pdfa(rng, rng.randint(1, 6))[0], None
    t = unfold_pdfa(loaded, root, rng.randint(0, 3))
    yield t, None
    yield unfold_mnfa(samples.one_state_two_loops(), "p", rng.randint(0, 2)), None
    yield tree_from_doc(tree_to_doc(random_involutive_tree(rng, 12))), None
    yield reroot_disc(t, rng.choice(t.sorted_nodes())), None


def test_dumps_matches_stdlib_writer_on_documents():
    # The writers give the standard library's bytes, and so does the generic
    # column writer they replaced.
    kinds = Counter()
    for seed in range(60):
        for obj, root in _writables(seed):
            text, doc = _written(obj, root)
            assert text == dumps_stdlib(doc) == dumps_by_columns(doc)
            kinds[doc.get("kind", "tree")] += 1
    assert kinds["pdfa"] >= 240 and kinds["mnfa"] >= 60 and kinds["tree"] >= 240, kinds


_ODD = ['a"b', "c\\d", "100%", "%s", "%%d", "\u00e9", "\U0001f600", "\x00\n\t", "\x1f\u2028", ""]


def _edge_cases():
    """Automata and discs at the edges of what the writers take."""
    al_a, al_odd = involutive_closure(["a"]), involutive_closure(["%d", 'b"\u00e9'])
    yield PDfa(set(), al_a, {}), None  # no states
    yield MNfa(set(), al_a, []), None
    yield PDfa({"p"}, al_a, {}), "p"  # no transitions
    yield MNfa({"p"}, al_a, []), None
    yield PDfa({"p"}, al_a, {("p", "a"): "ghost"}), "p"  # a state only a transition names
    yield PDfa({"p"}, al_a, {("p", "z"): "p", ("ghost", "a"): "p"}), None  # and a letter outside the alphabet
    yield MNfa({"p", "q"}, al_a, [Transition(7, "p", "a", "q"), Transition(-3, "q", "a^-1", "p"), Transition(100, "p", "a", "p")]), "q"
    letters = al_odd.sorted_letters()
    odd = PDfa(_ODD, al_odd, {(p, x): _ODD[(i + j) % len(_ODD)] for i, p in enumerate(_ODD) for j, x in enumerate(letters) if (i + j) % 3})
    loaded = automaton_from_doc(automaton_to_doc(odd))[0]
    yield odd, _ODD[0]
    yield loaded, _ODD[5]
    yield pdfa_to_mnfa(odd), _ODD[7]
    yield DiscTree(0, "r", {"r": 'x"%\\'}, {}, al_a), None  # a single node
    yield unfold_pdfa(loaded, _ODD[1], 0), None
    t = unfold_pdfa(loaded, _ODD[1], 3)
    yield t, None
    yield unfold_mnfa(pdfa_to_mnfa(odd), _ODD[2], 2), None
    yield tree_from_doc(tree_to_doc(t)), None
    yield reroot_disc(t, t.sorted_nodes()[1]), None


def test_writers_match_stdlib_writer_on_edge_cases():
    written = [_written(*case) for case in _edge_cases()]
    for text, doc in written:
        assert text == dumps_stdlib(doc), doc
    assert '"states": []' in written[0][0] and '"transitions": []' in written[2][0]
    assert {'"ghost"', '"z"'} <= {word.strip(",") for word in written[5][0].split()}
    assert len(written[-1][1]["nodes"]) > 10 and '\\u00e9' in written[-1][0]


@settings(max_examples=300, deadline=None)
@given(doc=_JSON)
def test_dumps_matches_stdlib_writer(doc):
    assert dumps_by_columns(doc) == dumps_stdlib(doc)


_RETYPED = [None, True, False, 0, 1, 1.5, "", "x", "ghost", [], ["x"], {}, {"x": 1}]


def _damaged(doc):
    """Copies of ``doc`` with one field, row or row field dropped, added or
    retyped, a row replaced by a non-object, or rows repeated."""
    for key in doc:
        for junk in _RETYPED:
            yield {**doc, key: junk}
        yield {k: v for k, v in doc.items() if k != key}
    yield {**doc, "extra": 1}
    for key, rows in doc.items():
        if not isinstance(rows, list) or not rows or not isinstance(rows[0], dict):
            continue
        for i in sorted({0, len(rows) - 1}):
            row = rows[i]
            if not isinstance(row, dict):
                continue
            variants = [{**row, "extra": 1}, *(None, 5, "x", [], [row])]
            for field in row:
                variants.append({k: v for k, v in row.items() if k != field})
                variants += [{**row, field: junk} for junk in _RETYPED]
            for variant in variants:
                yield {**doc, key: [*rows[:i], variant, *rows[i + 1:]]}
        # Repeated rows: a duplicate id, and pdfa clashes under new ids, one
        # or two of them, so the reader must report the first.
        yield {**doc, key: [*rows, rows[0]]}
        if key == "transitions" and all(isinstance(row, dict) and "to" in row for row in rows):
            clash_first = {**rows[0], "id": len(rows) + 5, "to": rows[-1]["to"]}
            clash_last = {**rows[-1], "id": len(rows) + 6}
            yield {**doc, key: [*rows, clash_first]}
            yield {**doc, key: [*rows, clash_last]}
            yield {**doc, key: [*rows, clash_first, clash_last]}


def _outcome(read, doc, **kw):
    try:
        result = read(copy.deepcopy(doc), **kw)
    except Exception as e:
        return type(e), str(e)
    if isinstance(result, tuple):  # (automaton, root)
        return type(result[0]), result
    return result


def _check_pdfa_forms(read, doc, kw, want: PDfa):
    """Whichever of ``delta`` and the index is read first, the map equals
    the oracle's and the index is the one ``_build_index`` makes from it;
    written from its index alone, the pDFA gives the oracle's document."""
    for delta_first in (True, False):
        d, _ = read(copy.deepcopy(doc), **kw)
        if delta_first:
            assert d.delta == want.delta
        else:
            assert automaton_to_doc(d) == automaton_to_doc(want)
        ix = d._indexed()
        built = _build_index(ix.names, want.alphabet, want.delta)
        assert (ix.succ, ix.masks) == (built.succ, built.masks)
        assert (d.states, d.alphabet, d.delta) == (want.states, want.alphabet, want.delta)


def test_readers_match_field_by_field_oracles_on_damaged_documents():
    rng = random.Random(41)
    outcomes = Counter()
    for seed in range(12):
        for doc in _documents(seed):
            if "kind" in doc:
                readers = [(automaton_from_doc, automaton_from_doc_by_fields, {"strict": s}) for s in (True, False)]
            elif "nodes" in doc:
                readers = [(tree_from_doc, tree_from_doc_by_fields, {})]
            else:
                continue
            once = list(_damaged(doc))
            twice = [damaged for d in rng.sample(once, min(20, len(once))) for damaged in _damaged(d)]
            for damaged in [doc, *once, *rng.sample(twice, min(200, len(twice)))]:
                for read, oracle, kw in readers:
                    got = _outcome(read, damaged, **kw)
                    want = _outcome(oracle, damaged, **kw)
                    assert got == want, damaged
                    outcomes[got[0] if isinstance(got, tuple) else "tree"] += 1
                    if isinstance(got, tuple) and got[0] is PDfa and kw["strict"]:
                        _check_pdfa_forms(read, damaged, kw, want[1][0])
    assert outcomes[SchemaError] >= 1000 and outcomes[PDfa] >= 100 and outcomes[MNfa] >= 100, outcomes
    assert outcomes["tree"] >= 50 and set(outcomes) == {SchemaError, PDfa, MNfa, "tree"}, outcomes
