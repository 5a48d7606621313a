import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samples
from cftree import automata, compression, involutive_closure, jsonio
from oracles import automaton_from_doc_by_fields, dumps_stdlib
from randgen import random_reduced_pdfa
from cftree.cli import run
from cftree.jsonio import automaton_to_doc, automaton_to_json, tree_to_doc, tree_to_json
from cftree import (
    NotReducedError,
    PDfa,
    UnknownStateError,
    iso_nonrooted,
    iso_rooted,
    pdfa_to_mnfa,
    reduce_rooted_to_nonrooted,
    unfold_pdfa,
)


@pytest.fixture
def fig_files(tmp_path):
    files = {}
    files["fig1"] = tmp_path / "fig1.json"
    files["fig1"].write_text(automaton_to_json(samples.one_state_two_loops(), root="p"))
    files["fig2"] = tmp_path / "fig2.json"
    files["fig2"].write_text(automaton_to_json(samples.astar_bstar_pdfa(), root="p"))
    files["ray"] = tmp_path / "ray.json"
    files["ray"].write_text(automaton_to_json(samples.ray(), root="u"))
    files["interior"] = tmp_path / "interior.json"
    files["interior"].write_text(automaton_to_json(samples.ray_from_interior(), root="r"))
    return files


SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(args):
    proc = subprocess.run(
        [sys.executable, "-m", "cftree.cli", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_iso_rooted_same_state(fig_files):
    f = str(fig_files["fig2"])
    assert run(["iso", f, "--state", "p", f, "--state", "p", "--rooted"]) == 0


def test_iso_rooted_witness_printed(fig_files, capsys):
    f = str(fig_files["fig2"])
    code = run(["iso", f, "--state", "p", f, "--state", "q", "--rooted", "--witness"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.strip() == "a"


def test_iso_unrooted(fig_files):
    assert (
        run(
            [
                "iso",
                str(fig_files["ray"]),
                "--state",
                "u",
                str(fig_files["interior"]),
                "--state",
                "r",
                "--unrooted",
            ]
        )
        == 0
    )


def test_iso_defaults_to_document_roots(fig_files):
    f = str(fig_files["fig2"])
    assert run(["iso", f, f]) == 0


def test_unfold_dot_has_seven_nodes(fig_files, capsys):
    code = run(["unfold", str(fig_files["fig1"]), "--state", "p", "--radius", "2", "--dot"])
    captured = capsys.readouterr()
    assert code == 0
    node_lines = [l for l in captured.out.splitlines() if "label" in l and "->" not in l]
    assert len(node_lines) == 7
    assert captured.out.count("->") == 6


def test_unfold_json_round_trips_through_compress(fig_files, tmp_path, capsys):
    code = run(["unfold", str(fig_files["fig2"]), "--state", "p", "--radius", "3"])
    captured = capsys.readouterr()
    assert code == 0
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(captured.out)
    code = run(["compress", str(tree_file)])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["kind"] == "pdfa"
    assert "root" in doc


def _munn_tree_rows(rng, n_nodes):
    """The Munn tree of a random walk in the Cayley graph of the free group
    on a and b, until ``n_nodes`` nodes are visited: its nodes as reduced
    words, in visiting order, and its parent-to-child edges."""
    inv = {"a": "a^-1", "a^-1": "a", "b": "b^-1", "b^-1": "b"}
    cur = ()
    nodes, edges = [cur], []
    seen = {cur}
    while len(nodes) < n_nodes:
        x = rng.choice(sorted(inv))
        if cur and cur[-1] == inv[x]:
            cur = cur[:-1]
            continue
        nxt = cur + (x,)
        if nxt not in seen:
            seen.add(nxt)
            nodes.append(nxt)
            edges.append((cur, x, nxt))
        cur = nxt
    return nodes, edges, inv


def test_compress_output_depends_only_on_the_tree(tmp_path, capsys):
    # One 500-node Munn tree written 20 times, with node ids renamed at
    # random (ids of several lengths, so their repr order differs from the
    # tree's), rows shuffled and each edge in a random orientation: every
    # document compresses to the same bytes.
    rng = random.Random(83)
    nodes, edges, inv = _munn_tree_rows(rng, 500)
    outputs = set()
    for k in range(20):
        names = [f"n{j}" for j in rng.sample(range(5000), len(nodes))]
        ids = dict(zip(nodes, names))
        node_rows = [{"id": ids[v], "label": "t"} for v in nodes]
        edge_rows = [
            {"from": ids[u], "label": x, "to": ids[v]} if rng.random() < 0.5 else {"from": ids[v], "label": inv[x], "to": ids[u]}
            for u, x, v in edges
        ]
        rng.shuffle(node_rows)
        rng.shuffle(edge_rows)
        doc = {"radius": max(map(len, nodes)), "root": ids[()], "nodes": node_rows, "edges": edge_rows}
        tree_file = tmp_path / f"tree{k}.json"
        tree_file.write_text(json.dumps(doc))
        assert run(["compress", str(tree_file)]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["kind"] == "pdfa"


def test_validate_ok_and_exit_codes(fig_files, tmp_path, capsys):
    assert run(["validate", str(fig_files["fig2"])]) == 0
    capsys.readouterr()
    bad = automaton_to_doc(samples.one_state_two_loops())
    bad["transitions"][0]["label"] = "zz"
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(bad))
    assert run(["validate", str(bad_file)]) == 1
    captured = capsys.readouterr()
    assert "UNKNOWN_LABEL" in captured.out


def test_invalid_inputs_exit_2(fig_files, tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{oops")
    assert run(["validate", str(garbage)]) == 2
    assert run(["unfold", str(fig_files["fig2"]), "--state", "ghost", "--radius", "2"]) == 2
    assert run(["unfold", str(fig_files["fig2"]), "--state", "p", "--radius", "-1"]) == 2
    assert run(["iso", str(fig_files["fig1"]), str(fig_files["fig1"])]) == 2  # not deterministic
    assert run(["reroot", str(fig_files["ray"]), "--word", "a^-1"]) == 2  # not in language
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    assert run(["unfold", str(missing), "--radius", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"error[BAD_DOCUMENT]: cannot read {missing}: ")
    rootless = tmp_path / "rootless.json"
    rootless.write_text(automaton_to_json(samples.astar_bstar_pdfa()))
    assert run(["unfold", str(rootless), "--radius", "1"]) == 2
    assert capsys.readouterr().err == f"error[BAD_DOCUMENT]: {rootless} has no root and no --state was given\n"
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    assert run(["validate", str(deep)]) == 2
    assert capsys.readouterr().err.startswith("error[BAD_DOCUMENT]: not valid JSON: nested too deeply")


def test_reroot_pipes_from_witness(fig_files, capsys):
    code = run(
        [
            "iso",
            str(fig_files["interior"]),
            "--state",
            "r",
            str(fig_files["ray"]),
            "--state",
            "u",
            "--unrooted",
            "--witness",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    witness = captured.out.strip()
    assert witness == "a"
    code = run(["reroot", str(fig_files["ray"]), "--state", "u", "--word", witness])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["kind"] == "pdfa"
    assert "root" in doc


def test_reduce_2gap_and_lift(tmp_path, capsys):
    gap_file = tmp_path / "gap.json"
    gap_file.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["reduce-2gap", str(gap_file), "--out-a", str(out_a), "--out-b", str(out_b)]) == 0
    capsys.readouterr()
    assert run(["iso", str(out_a), str(out_b), "--rooted"]) == 1  # path exists -> not isomorphic
    capsys.readouterr()
    lift_a, lift_b = tmp_path / "la.json", tmp_path / "lb.json"
    assert (
        run(
            [
                "lift-nonrooted",
                str(out_a),
                str(out_b),
                "--out-a",
                str(lift_a),
                "--out-b",
                str(lift_b),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert run(["iso", str(lift_a), str(lift_b), "--unrooted"]) == 1
    capsys.readouterr()


def test_pair_operations_name_the_automaton_that_lacks_its_state(tmp_path, capsys):
    """A designated state missing from either automaton of a pair is named
    with its side, after both automata are found reduced, in the library
    and on the command line."""
    ray, unreduced = samples.ray(), samples.loop_both_directions()
    for op in (iso_rooted, iso_nonrooted, reduce_rooted_to_nonrooted):
        for args, side in (((ray, "ghost", ray, "u"), "first"), ((ray, "u", ray, "ghost"), "second")):
            with pytest.raises(UnknownStateError) as caught:
                op(*args)
            assert str(caught.value) == f"state 'ghost' is not in the {side} automaton"
        with pytest.raises(NotReducedError, match="^second automaton is not reduced"):
            op(ray, "ghost", unreduced, "p")

    gap_file = tmp_path / "gap.json"
    gap_file.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 3]]}))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["reduce-2gap", str(gap_file), "--out-a", a, "--out-b", b]) == 0
    capsys.readouterr()
    outs = ["--out-a", str(tmp_path / "la.json"), "--out-b", str(tmp_path / "lb.json")]
    for args, side in (
        (["iso", a, b, "--state", "ghost", "--state", ""], "first"),
        (["iso", a, b, "--state", "ghost", "--state", "", "--witness"], "first"),
        (["iso", a, b, "--unrooted", "--state", "", "--state", "ghost"], "second"),
        (["lift-nonrooted", a, b, "--state-a", "ghost", *outs], "first"),
        (["lift-nonrooted", a, b, "--state-b", "ghost", *outs], "second"),
    ):
        assert run(args) == 2
        assert capsys.readouterr() == ("", f"error[UNKNOWN_STATE]: state 'ghost' is not in the {side} automaton\n")
    assert not (tmp_path / "la.json").exists() and not (tmp_path / "lb.json").exists()


def test_minimize_cli(fig_files, capsys):
    assert run(["minimize", str(fig_files["fig2"])]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "pdfa"
    assert len(doc["states"]) == 2


def test_minimize_cli_refines_once(fig_files, monkeypatch, capsys):
    calls = []
    refine = compression._classes
    monkeypatch.setattr(compression, "_classes", lambda sides: calls.append(sides) or refine(sides))
    for extra in ([], ["--trim"]):
        calls.clear()
        assert run(["minimize", str(fig_files["fig2"]), *extra]) == 0
        assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "path, value",
    [
        (("nodes",), 5),
        (("edges",), 5),
        (("radius",), True),
        (("root",), ["v0"]),
        (("nodes", 0, "id"), {"x": 1}),
        (("nodes", 0, "label"), 3),
        (("edges", 0, "label"), ["a"]),
        (("edges", 0, "to"), {"x": 1}),
    ],
    ids=["nodes-int", "edges-int", "radius-bool", "root-list", "node-id-object",
         "node-label-int", "edge-letter-list", "edge-end-object"],
)
def test_compress_rejects_mistyped_tree_fields(path, value, tmp_path, capsys):
    doc = tree_to_doc(unfold_pdfa(samples.astar_bstar_pdfa(), "p", 1))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(doc))
    assert run(["compress", str(tree_file)]) == 2
    assert "error[BAD_DOCUMENT]" in capsys.readouterr().err


@pytest.mark.parametrize("bad_side", ["--out-a", "--out-b"])
def test_unwritable_output_path_exit_2(fig_files, tmp_path, capsys, bad_side):
    gap_file = tmp_path / "gap.json"
    gap_file.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    outs = {"--out-a": str(tmp_path / "a.json"), "--out-b": str(tmp_path / "b.json")}
    outs[bad_side] = str(tmp_path / "missing" / "out.json")
    out_args = [arg for pair in outs.items() for arg in pair]
    f = str(fig_files["fig2"])
    for args in (["reduce-2gap", str(gap_file)], ["lift-nonrooted", f, f]):
        assert run([*args, *out_args]) == 2
        assert "error[BAD_DOCUMENT]: cannot write" in capsys.readouterr().err


def _bool_transition_id():
    doc = automaton_to_doc(samples.astar_bstar_pdfa(), root="p")
    doc["transitions"][0]["id"] = True
    return doc


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("reduce-2gap", {"n": 3, "edges": 5}, "edges must be a list"),
        ("reduce-2gap", {"n": True, "edges": []}, "n must be an integer"),
        ("reduce-2gap", {"n": 3, "edges": [[0, True]]}, "edges must be pairs of integers"),
        ("validate", _bool_transition_id(), "transition id must be an integer"),
    ],
    ids=["gap-edges-int", "gap-n-bool", "gap-endpoint-bool", "transition-id-bool"],
)
def test_mistyped_numbers_exit_2(command, doc, message, tmp_path, capsys):
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(doc))
    outs = ["--out-a", str(tmp_path / "a.json"), "--out-b", str(tmp_path / "b.json")]
    args = [command, str(doc_file), *(outs if command == "reduce-2gap" else [])]
    assert run(args) == 2
    assert f"error[BAD_DOCUMENT]: {message}" in capsys.readouterr().err


def test_reduce_2gap_past_node_budget_exit_2(tmp_path, capsys):
    gap_file = tmp_path / "gap.json"
    gap_file.write_text(json.dumps({"n": 10**12, "edges": []}))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["reduce-2gap", str(gap_file), "--out-a", str(out_a), "--out-b", str(out_b)]) == 2
    assert "error[LIMIT_EXCEEDED]" in capsys.readouterr().err
    assert not out_a.exists() and not out_b.exists()


# Well-formed documents of each schema, then up to two of their fields or
# list items, at any depth, mistyped or missing.  Integers stay small so
# every command is fast.
_JUNK = st.sampled_from([None, True, False, 0, -1, 7, "", "a", [], [0], ["a"], {}, {"a": 1}])
_LETTERS = ["a", "a^-1", "b", "b^-1"]
_ALPHABET = {"letters": _LETTERS, "inverse": {"a": "a^-1", "a^-1": "a", "b": "b^-1", "b^-1": "b"}}


@st.composite
def _automaton_doc(draw):
    states = draw(st.lists(st.sampled_from(["p", "q", "r"]), min_size=1, unique=True))
    delta = draw(st.dictionaries(
        st.tuples(st.sampled_from(states), st.sampled_from(_LETTERS)), st.sampled_from(states)
    ))
    return {
        "alphabet": _ALPHABET,
        "kind": draw(st.sampled_from(["mnfa", "pdfa"])),
        "states": states,
        "transitions": [
            {"id": i, "from": p, "label": a, "to": q} for i, ((p, a), q) in enumerate(delta.items())
        ],
        "root": draw(st.sampled_from(states)),
    }


@st.composite
def _tree_doc(draw):
    # Node v{i} hangs below an earlier node on a letter that node does not
    # read yet, so the involutive closure stays deterministic.
    reads, level = [set()], [0]
    edges = []
    for i in range(1, draw(st.integers(1, 5))):
        parent = draw(st.integers(0, i - 1))
        a = draw(st.sampled_from([x for x in _LETTERS if x not in reads[parent]]))
        reads[parent].add(a)
        reads.append({_ALPHABET["inverse"][a]})
        level.append(level[parent] + 1)
        edges.append({"from": f"v{parent}", "label": a, "to": f"v{i}"})
    return {
        "radius": max(level) + draw(st.integers(0, 2)),
        "root": "v0",
        "alphabet": _ALPHABET,
        "nodes": [{"id": f"v{i}", "label": draw(st.sampled_from(["p", "q"]))} for i in range(len(reads))],
        "edges": edges,
    }


@st.composite
def _gap2_doc(draw):
    n = draw(st.integers(1, 6))
    return {"n": n, "edges": draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=6))}


def _paths(value, prefix=()):
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield prefix + (key,)
        yield from _paths(sub, prefix + (key,))


@st.composite
def _damaged(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 2))):
        paths = sorted(_paths(doc), key=len)  # top-level fields first
        if not paths:
            break
        *path, key = draw(st.sampled_from(paths))
        parent = doc
        for step in path:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(_JUNK))  # never mutate the sampled value
    return doc


# Command-line arguments: states and letters the documents may lack, radii
# from -1 (rejected) to 4 (small enough to stay fast) or not integers at
# all, and flags no command knows.
_STATE = st.sampled_from(["p", "q", "r", "ghost"])
_RADIUS = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["x", "1.5", "", "0x2", "--dot"]))
_BOGUS = st.sampled_from([[], [], [], ["--bogus"], ["-z"], ["--radius"], ["--state"]])


def _maybe(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _flat(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


@pytest.mark.parametrize(
    "command, documents, options",
    [
        ("validate", [_automaton_doc()], st.just([])),
        ("minimize", [_automaton_doc()], st.just([])),
        ("compress", [_tree_doc()], st.just([])),
        ("reduce-2gap", [_gap2_doc()], st.just([])),
        ("unfold", [_automaton_doc()], _flat(
            _maybe("--state", _STATE),
            _RADIUS.map(lambda r: ["--radius", r]),
            st.sampled_from([[], ["--dot"], ["--json"]]),
        )),
        ("iso", [_automaton_doc(), _automaton_doc()], _flat(
            st.lists(_STATE, max_size=3).map(lambda ss: [x for s in ss for x in ("--state", s)]),
            st.sampled_from([[], ["--rooted"], ["--unrooted"]]),
            st.sampled_from([[], ["--witness"]]),
        )),
        ("reroot", [_automaton_doc()], _flat(
            _maybe("--state", _STATE),
            st.lists(st.sampled_from([*_LETTERS, "z"]), max_size=4).map(lambda w: ["--word", ",".join(w)]),
        )),
        ("lift-nonrooted", [_automaton_doc(), _automaton_doc()], _flat(
            _maybe("--state-a", _STATE), _maybe("--state-b", _STATE),
        )),
    ],
    ids=["validate", "minimize", "compress", "reduce-2gap", "unfold", "iso", "reroot", "lift-nonrooted"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_never_prints_a_traceback(command, documents, options, data):
    docs = [data.draw(d.flatmap(_damaged)) for d in documents]
    # Now and then a document argument goes missing.
    docs = docs[: data.draw(st.sampled_from([len(docs)] * 3 + [len(docs) - 1]))]
    with tempfile.TemporaryDirectory() as tmp:
        args = [command]
        for i, doc in enumerate(docs):
            doc_file = Path(tmp) / f"doc{i}.json"
            doc_file.write_text(json.dumps(doc))
            args.append(str(doc_file))
        args += data.draw(options) + data.draw(_BOGUS)
        if command in ("reduce-2gap", "lift-nonrooted"):
            args += ["--out-a", str(Path(tmp) / "a.json"), "--out-b", str(Path(tmp) / "b.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(args)
    assert code in (0, 1, 2)
    if code == 2:
        assert "error[" in err.getvalue()


@pytest.mark.parametrize(
    "args, message",
    [
        ([], "cftree: the following arguments are required: command"),
        (["--bogus"], "cftree: the following arguments are required: command"),
        (["iso"], "cftree iso: the following arguments are required: file_a, file_b"),
        (["validate", "DOC", "--bogus"], "cftree: unrecognized arguments: --bogus"),
        (["unfold", "DOC", "--radius", "x"], "cftree unfold: argument --radius: invalid int value: 'x'"),
        (["unfold", "DOC"], "cftree unfold: the following arguments are required: --radius"),
        (["iso", "DOC", "DOC", "--state", "p"], "--state must be given for both automata (or for neither)"),
    ],
)
def test_usage_errors_exit_2(fig_files, capsys, args, message):
    args = [str(fig_files["fig2"]) if a == "DOC" else a for a in args]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[USAGE]: {message}\n"


def test_help_still_exits_0(capsys):
    for args in (["--help"], ["iso", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            run(args)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cftree")


def test_unfold_stops_once_every_branch_ends(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(automaton_to_json(PDfa({"p"}, samples.AL_A, {}), root="p"))
    outputs = {}
    for radius in (0, 10**8):
        for fmt in ("--dot", "--json"):
            start = time.perf_counter()
            assert run(["unfold", str(point), "--radius", str(radius), fmt]) == 0
            assert time.perf_counter() - start < 2
            outputs[radius, fmt] = capsys.readouterr().out
    assert outputs[10**8, "--dot"] == outputs[0, "--dot"]
    far, near = json.loads(outputs[10**8, "--json"]), json.loads(outputs[0, "--json"])
    assert far.pop("radius") == 10**8 and near.pop("radius") == 0
    assert far == near


def test_written_documents_are_the_stdlib_writers_bytes(fig_files, tmp_path, capsys):
    # Every document a command prints or writes is, byte for byte, what
    # json.dumps(doc, indent=2) plus a newline makes of the same document.
    d, root = random_reduced_pdfa(random.Random(43), 40, samples.AL_AB)
    big = tmp_path / "big.json"
    big.write_text(automaton_to_json(d, root=root))
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 4], [2, 3]]}))
    tree = tmp_path / "tree.json"
    outs = ["--out-a", str(tmp_path / "a.json"), "--out-b", str(tmp_path / "b.json")]
    fig1, fig2, ray, big = str(fig_files["fig1"]), str(fig_files["fig2"]), str(fig_files["ray"]), str(big)
    commands = [
        ["unfold", fig1, "--state", "p", "--radius", "2"],
        ["unfold", fig2, "--radius", "3", "--json"],
        ["unfold", big, "--radius", "3"],
        ["reroot", ray, "--word", "a a"],
        ["reroot", big, "--word", ""],
        ["compress", str(tree)],
        ["minimize", fig2],
        ["minimize", big],
        ["minimize", big, "--trim"],
        ["reduce-2gap", str(gap), *outs],
        ["lift-nonrooted", fig2, big, *outs],
    ]
    tree.write_text(tree_to_json(unfold_pdfa(d, root, 4)))
    for args in commands:
        for written in outs[1::2]:
            Path(written).unlink(missing_ok=True)
        assert run(args) == 0, args
        texts = [capsys.readouterr().out]
        if "--out-a" in args:
            assert texts == [""]
            texts = [Path(written).read_text() for written in outs[1::2]]
        for text in texts:
            assert text == dumps_stdlib(json.loads(text)), args


def test_written_documents_build_no_dict_document(tmp_path, monkeypatch, capsys):
    # Every command that writes a document writes it straight from the
    # index, the map or the disc: it builds no dict document and decodes no
    # transition map, and gives the bytes of the dict route.
    rng = random.Random(53)
    paths = {}
    for name in ("a", "b"):
        d, root = random_reduced_pdfa(rng, 40, samples.AL_AB)
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(automaton_to_json(d, root=root))
    word = min(d.out_set(root))
    paths["tree"] = tmp_path / "tree.json"
    paths["tree"].write_text(tree_to_json(unfold_pdfa(d, root, 4)))
    paths["gap"] = tmp_path / "gap.json"
    paths["gap"].write_text(json.dumps({"n": 6, "edges": [[0, 1], [1, 5], [2, 3]]}))
    paths["mnfa"] = tmp_path / "mnfa.json"
    paths["mnfa"].write_text(automaton_to_json(pdfa_to_mnfa(d), root=root))
    a, b, tree, gap, mnfa = (str(paths[k]) for k in ("a", "b", "tree", "gap", "mnfa"))
    outs = ["--out-a", str(tmp_path / "out-a.json"), "--out-b", str(tmp_path / "out-b.json")]
    commands = [
        ["compress", tree],
        ["minimize", a],
        ["minimize", a, "--trim"],
        ["minimize", mnfa],
        ["reroot", b, "--word", word],
        ["unfold", a, "--radius", "3"],
        ["unfold", mnfa, "--radius", "2"],
        ["reduce-2gap", gap, *outs],
        ["lift-nonrooted", a, b, *outs],
    ]
    calls = []
    for module, name in ((jsonio, "automaton_to_doc"), (jsonio, "tree_to_doc"), (automata, "_decode_delta")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _real=real, _name=name, **kw: calls.append(_name) or _real(*args, **kw))

    def outputs():
        texts = []
        for args in commands:
            assert run(args) == 0, args
            texts.append(capsys.readouterr().out)
            if "--out-a" in args:
                texts += [Path(written).read_text() for written in outs[1::2]]
        return texts

    got = outputs()
    assert calls == []
    monkeypatch.setattr(jsonio, "automaton_to_json", lambda aut, root=None: dumps_stdlib(jsonio.automaton_to_doc(aut, root)))
    monkeypatch.setattr(jsonio, "tree_to_json", lambda t: dumps_stdlib(jsonio.tree_to_doc(t)))
    assert outputs() == got
    assert sorted(set(calls)) == ["automaton_to_doc", "tree_to_doc"]  # the counters see the dict route


def test_iso_and_minimize_on_pdfa_documents_decode_no_delta(tmp_path, monkeypatch, capsys):
    # A strict pdfa document loads into the integer index only; `iso`,
    # `minimize` (also with `--trim`), `unfold`, `reroot`, `lift-nonrooted`
    # and `validate` never decode it into a transition map, not even to name the pair of transitions that
    # makes a document not reduced.  Every command gives the same output as
    # with the field-by-field reader, whose pDFAs hold a map from the start.
    rng = random.Random(47)
    al_b = involutive_closure(["b"])
    paths = {}
    first_letters = {}
    for name, alphabet, n in (("ab", samples.AL_AB, 60), ("ab2", samples.AL_AB, 60), ("a", samples.AL_A, 6), ("b", al_b, 6)):
        d, root = random_reduced_pdfa(rng, n, alphabet)
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(automaton_to_json(d, root=root))
        first_letters[name] = min(d.out_set(root))
    d, root = random_reduced_pdfa(random.Random(47), 60, samples.AL_AB)  # "ab" again, renamed
    renamed = PDfa({f"r{p}" for p in d.states}, d.alphabet, {(f"r{p}", x): f"r{q}" for (p, x), q in d.delta.items()})
    paths["ab-renamed"] = tmp_path / "ab-renamed.json"
    paths["ab-renamed"].write_text(automaton_to_json(renamed, root=f"r{root}"))
    bad = PDfa({"s0", "s1", "s2", "s3"}, samples.AL_AB, {
        ("s0", "a"): "s1", ("s1", "b"): "s2", ("s2", "b^-1"): "s3",
        ("s3", "a"): "s0", ("s0", "b"): "s3", ("s3", "b^-1"): "s1",
    })  # two violations; the one from the smallest state is named
    paths["bad"] = tmp_path / "bad.json"
    paths["bad"].write_text(automaton_to_json(bad, root="s0"))
    ab, ab2, ab_renamed, a, b, bad = (str(paths[k]) for k in ("ab", "ab2", "ab-renamed", "a", "b", "bad"))
    quiet = [
        ["iso", ab, ab_renamed, "--witness"],
        ["iso", ab, ab2, "--witness"],
        ["iso", ab, ab_renamed, "--unrooted", "--witness"],
        ["iso", ab2, ab, "--unrooted", "--witness"],
        ["iso", a, ab, "--witness"],
        ["iso", ab, b, "--unrooted", "--witness"],
        ["iso", b, ab, "--state", "s0", "--state", "s1", "--witness"],
        ["minimize", ab],
        ["minimize", b],
        ["minimize", ab, "--trim"],
        ["unfold", ab, "--radius", "3"],
        ["unfold", a, "--radius", "2", "--dot"],
        ["reroot", ab, "--word", first_letters["ab"]],
        ["lift-nonrooted", ab, ab2, "--out-a", str(tmp_path / "lift-a.json"), "--out-b", str(tmp_path / "lift-b.json")],
        ["validate", ab],
    ]
    rejected = [
        ["iso", bad, ab],
        ["iso", ab, bad, "--unrooted"],
        ["reroot", bad, "--word", "a"],
    ]
    decodes = []
    decode = automata._decode_delta
    monkeypatch.setattr(automata, "_decode_delta", lambda ix: decodes.append(ix) or decode(ix))

    def outputs(commands):
        results = []
        for args in commands:
            decodes.clear()
            code = run(args)
            results.append((code, *capsys.readouterr(), len(decodes)))
        return results

    got = outputs(quiet)
    assert [r[3] for r in got] == [0] * len(quiet)
    assert {r[0] for r in got} == {0, 1}
    loaded = jsonio.automaton_from_doc(json.loads(paths["ab"].read_text()))[0]
    decodes.clear()
    assert loaded.delta and len(decodes) == 1  # reading the map decodes it: the counter sees decodes
    pair = "'s0' -b-> 's3' -b^-1-> 's1'\n"
    got_rejected = outputs(rejected)
    assert got_rejected == [
        (2, "", f"error[NOT_REDUCED]: {what} is not reduced: {pair}", 0)
        for what in ("first automaton", "second automaton", "input")
    ]
    monkeypatch.setattr(jsonio, "automaton_from_doc", automaton_from_doc_by_fields)
    want = outputs(quiet)
    assert [r[:3] for r in got] == [r[:3] for r in want]
    assert [r[:3] for r in got_rejected] == [r[:3] for r in outputs(rejected)]


def test_minimize_trim_without_a_root_is_rejected(tmp_path, capsys):
    # ``--trim`` keeps the states reachable from the root, so a document
    # with no root cannot be trimmed; it is not quotiented untrimmed.
    path = tmp_path / "rootless.json"
    path.write_text(automaton_to_json(samples.astar_bstar_pdfa()))
    assert run(["minimize", str(path), "--trim"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error[BAD_DOCUMENT]: {path} has no root and --trim needs one\n")
    assert run(["minimize", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["states"] == ["p", "q"]


def test_documents_are_read_as_utf8_under_an_ascii_locale(tmp_path, capsys):
    # A UTF-8 document reads the same whatever the locale's encoding, and a
    # file that is not UTF-8 is an unreadable document.  Output that names a
    # non-ASCII state, DOT text and validation issues, is written as UTF-8.
    doc = automaton_to_doc(PDfa({"\u00e9"}, samples.AL_A, {("\u00e9", "a"): "\u00e9"}), root="\u00e9")
    text = json.dumps(doc, ensure_ascii=False)
    utf8, latin1, dangling = tmp_path / "u.json", tmp_path / "l.json", tmp_path / "d.json"
    utf8.write_bytes(text.encode("utf-8"))
    latin1.write_bytes(text.encode("latin-1"))
    doc = {**doc, "states": ["p"], "transitions": [{"id": 0, "from": "p", "label": "a", "to": "\u00e9"}], "root": "p"}
    dangling.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    calls = [
        ["unfold", str(utf8), "--radius", "1"],
        ["unfold", str(latin1), "--radius", "1"],
        ["unfold", str(utf8), "--radius", "1", "--dot"],
        ["validate", str(dangling)],
    ]
    expected = []
    for argv in calls:
        code = run(argv)
        expected.append((code, *capsys.readouterr()))
    assert [e[0] for e in expected] == [0, 2, 0, 1]
    assert "\u00e9" in expected[2][1] and "\u00e9" in expected[3][1]
    ascii_env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0"}
    for argv, want in zip(calls, expected):
        proc = subprocess.run(
            [sys.executable, "-m", "cftree.cli", *argv],
            env=ascii_env,
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == want
    assert expected[1][2].startswith(f"error[BAD_DOCUMENT]: cannot read {latin1}: 'utf-8' codec can't decode")


def test_byte_identical_output(fig_files):
    args = ["unfold", str(fig_files["fig2"]), "--state", "p", "--radius", "3", "--dot"]
    code1, out1, _ = invoke(args)
    code2, out2, _ = invoke(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_console_entry_point_runs(fig_files):
    code, out, err = invoke(["validate", str(fig_files["fig2"])])
    assert code == 0
    assert "ok" in out
