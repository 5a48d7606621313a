"""A seeded corpus of CLI documents and command lines, and its output digest.

``write_corpus(directory)`` writes documents made by ``randgen`` into
``directory`` and returns command lines that name them by relative path.
``digest_lines()`` runs every command in-process from inside that directory
and gives one line per command: the command, then a hash of its exit code,
stdout, stderr and the files it wrote.  ``tests/data/cli_digest.txt`` holds
the lines of the committed code, and ``tests/test_corpus.py`` compares them.

Run ``PYTHONPATH=src python tests/corpus.py`` to print the lines, or add
``--regen`` to rewrite ``tests/data/cli_digest.txt`` after a deliberate
output change (then list the changed lines in CHANGES.md).

Input documents are built here from the automata's ``delta`` maps and the
discs' dict views, not by ``jsonio``'s writers, so a change to a writer
shows in the digest instead of in the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shlex
import sys
import tempfile
from pathlib import Path

from cftree import (
    InvolutiveAlphabet,
    PDfa,
    involutive_closure,
    reroot_along_word,
    unfold_pdfa,
)
from cftree.cli import run
from randgen import (
    random_gap2,
    random_involutive_tree,
    random_labeled_disc,
    random_pdfa,
    random_reduced_pdfa,
    readable_word,
)

DIGEST_FILE = Path(__file__).resolve().parent / "data" / "cli_digest.txt"

SELF_INVERSE = InvolutiveAlphabet(["a", "a^-1", "t"], {"a": "a^-1", "a^-1": "a", "t": "t"})
ALPHABETS = [involutive_closure(["a"]), involutive_closure(["a", "b"]), SELF_INVERSE]


def _alphabet_doc(alphabet: InvolutiveAlphabet) -> dict:
    letters = alphabet.sorted_letters()
    return {"letters": letters, "inverse": {a: alphabet.inv(a) for a in letters}}


def _pdfa_doc(rng: random.Random, d: PDfa, root: str | None, kind: str = "pdfa") -> dict:
    """``d`` as a document with its state and transition rows shuffled."""
    states = sorted(d.states)
    rows = [{"id": i, "from": p, "label": a, "to": q} for i, ((p, a), q) in enumerate(sorted(d.delta.items()))]
    rng.shuffle(states)
    rng.shuffle(rows)
    doc = {"alphabet": _alphabet_doc(d.alphabet), "kind": kind, "states": states, "transitions": rows}
    if root is not None:
        doc["root"] = root
    return doc


def _renamed(rng: random.Random, d: PDfa, root: str) -> tuple[PDfa, str]:
    # Not randgen.renamed_pdfa: the sampled r numbers are pinned by the committed digest.
    names = sorted(d.states)
    fresh = [f"r{i}" for i in rng.sample(range(10 * len(names)), len(names))]
    m = dict(zip(names, fresh))
    return PDfa(fresh, d.alphabet, {(m[p], a): m[q] for (p, a), q in d.delta.items()}), m[root]


def _mnfa_doc(rng: random.Random, d: PDfa, root: str | None, parallel: int) -> dict:
    """``d`` as an mnfa document with negative, unordered ids and
    ``parallel`` extra transitions beside existing ones."""
    doc = _pdfa_doc(rng, d, root, kind="mnfa")
    rows = doc["transitions"]
    for _ in range(parallel if rows else 0):
        row = dict(rng.choice(rows))
        row["to"] = rng.choice(doc["states"])
        rows.append(row)
    for i, tid in enumerate(rng.sample(range(-len(rows), 2 * len(rows)), len(rows))):
        rows[i]["id"] = tid
    rng.shuffle(rows)
    return doc


def _tree_doc(rng: random.Random, t, with_alphabet: bool) -> dict:
    """The disc ``t`` as a tree document: renamed ids, shuffled rows and
    each edge written in a random orientation."""
    handles = list(t.labels)
    ids = {v: f"n{i}" for v, i in zip(handles, rng.sample(range(5 * len(handles)), len(handles)))}
    nodes = [{"id": ids[v], "label": label} for v, label in t.labels.items()]
    edges = []
    for c, (p, a) in t.parent.items():
        if rng.random() < 0.5:
            edges.append({"from": ids[p], "label": a, "to": ids[c]})
        else:
            edges.append({"from": ids[c], "label": t.alphabet.inv(a), "to": ids[p]})
    rng.shuffle(nodes)
    rng.shuffle(edges)
    doc = {"radius": t.radius, "root": ids[t.root], "nodes": nodes, "edges": edges}
    if with_alphabet:
        doc["alphabet"] = _alphabet_doc(t.alphabet)
    return doc


class _Writer:
    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def __call__(self, stem: str, doc) -> str:
        self.count += 1
        name = f"{stem}{self.count}.json"
        text = json.dumps(doc, indent=1, ensure_ascii=False) + "\n"
        (self.directory / name).write_bytes(text.encode("utf-8"))
        return name


def write_corpus(directory: Path, seed: int = 2024) -> list[list[str]]:
    """Write the corpus documents into ``directory``; return the command
    lines, each naming its files relative to ``directory``."""
    rng = random.Random(seed)
    write = _Writer(directory)
    cmds: list[list[str]] = []
    outs = itertools.count()

    def out_args() -> list[str]:
        k = next(outs)
        return ["--out-a", f"out{k}a.json", "--out-b", f"out{k}b.json"]

    reduced: list[str] = []
    for k in range(36):
        alphabet = ALPHABETS[k % 3]
        d, root = random_reduced_pdfa(rng, rng.randint(1, 7), alphabet)
        f = write("reduced", _pdfa_doc(rng, d, root))
        reduced.append(f)
        cmds.append(["validate", f])
        cmds.append(["unfold", f, "--radius", str(rng.randint(0, 4))])
        cmds.append(["unfold", f, "--radius", str(rng.randint(0, 3)), "--dot"])
        cmds.append(["minimize", f, *(["--trim"] if k % 2 else [])])
        word = readable_word(rng, d, root, rng.randint(0, 6))
        cmds.append(["reroot", f, "--word", ",".join(word) if k % 2 else " ".join(word)])
        cmds.append(["reroot", f, "--word", " ".join([*word, "b^-1", "b"])])

        # A renamed copy (rooted-isomorphic) and a copy re-rooted along a
        # walk (isomorphic without roots), each in its own document.
        r, rroot = _renamed(rng, d, root)
        g = write("renamed", _pdfa_doc(rng, r, rroot))
        moved, mroot = reroot_along_word(d, root, readable_word(rng, d, root, rng.randint(1, 5)))
        h = write("moved", _pdfa_doc(rng, moved, mroot))
        other_f = reduced[rng.randrange(len(reduced))]
        for a, b in ((f, g), (f, h), (h, f), (f, other_f)):
            cmds.append(["iso", a, b, "--rooted", "--witness"])
            cmds.append(["iso", a, b, "--unrooted", "--witness"])
        cmds.append(["iso", f, g])
        cmds.append(["iso", f, h, "--unrooted"])
        cmds.append(["lift-nonrooted", f, g if k % 2 else other_f, *out_args()])

        if k % 4 == 0:  # unfold an mNFA view, with and without parallel edges
            m = write("mnfa", _mnfa_doc(rng, d, root, parallel=k % 8 // 4 * 2))
            cmds.append(["validate", m])
            cmds.append(["unfold", m, "--radius", "3"])
            cmds.append(["unfold", m, "--radius", "2", "--dot"])
            cmds.append(["iso", m, g, "--rooted", "--witness"])
            cmds.append(["iso", m, f, "--unrooted"])
            cmds.append(["minimize", m])

        if k % 3 == 0:  # a tree document of one disc, then compressed
            t = unfold_pdfa(d, root, rng.randint(0, 4))
            tf = write("disc", _tree_doc(rng, t, with_alphabet=k % 2 == 0))
            cmds.append(["compress", tf])

    for k in range(12):  # not necessarily reduced; every third one rootless
        d, root = random_pdfa(rng, rng.randint(1, 6), ALPHABETS[k % 3])
        f = write("pdfa", _pdfa_doc(rng, d, None if k % 3 == 0 else root))
        state = ["--state", root] if k % 3 == 0 else []
        cmds.append(["validate", f])
        cmds.append(["unfold", f, *state, "--radius", "3"])
        cmds.append(["minimize", f, *(["--trim"] if k % 2 else [])])
        cmds.append(["iso", f, f, *(state * 2), "--unrooted", "--witness"])
        cmds.append(["reroot", f, *state, "--word", " ".join(readable_word(rng, d, root, 3))])
        cmds.append(["lift-nonrooted", f, f, "--state-a", root, "--state-b", root, *out_args()])
        m = write("mnfa", _mnfa_doc(rng, d, root, parallel=k % 2))
        cmds.append(["iso", m, f, *(state * 2), "--rooted", "--witness"])
        cmds.append(["unfold", m, "--radius", "2"])

    for k in range(6):  # an unreachable part, and states only transitions name
        d, root = random_reduced_pdfa(rng, rng.randint(2, 5), ALPHABETS[k % 3])
        e, _ = _renamed(rng, d, root)
        both = PDfa(d.states | e.states, d.alphabet, {**d.delta, **e.delta})
        f = write("unreachable", _pdfa_doc(rng, both, root))
        cmds.append(["validate", f])
        cmds.append(["minimize", f])
        cmds.append(["minimize", f, "--trim"])
        cmds.append(["iso", f, f, "--unrooted", "--witness"])
        cmds.append(["unfold", f, "--radius", "3", "--dot"])
        doc = _pdfa_doc(rng, both, root)
        doc["states"] = [s for s in doc["states"] if s not in e.states]
        g = write("dangling", doc)
        doc = _pdfa_doc(rng, d, root)
        if doc["transitions"]:
            doc["transitions"][0]["label"] = "zz"
        u = write("letter", doc)
        for x in (g, u):
            cmds.append(["validate", x])
            cmds.append(["unfold", x, "--radius", "2"])
            cmds.append(["iso", x, f])

    for k in range(12):  # finite trees, and trees that compress to nothing
        t = random_involutive_tree(rng, rng.randint(1, 40), ALPHABETS[k % 3])
        cmds.append(["compress", write("tree", _tree_doc(rng, t, with_alphabet=k % 2 == 1))])
        t = random_labeled_disc(rng, 10)
        cmds.append(["compress", write("labeled", _tree_doc(rng, t, with_alphabet=k % 2 == 0))])

    for k in range(8):
        gap = random_gap2(rng, 12)
        gf = write("gap", {"n": gap.n, "edges": [list(e) for e in sorted(gap.edges)]})
        cmds.append(["reduce-2gap", gf, *out_args()])

    # Edge cases: a missing file, a rootless document without --state, a
    # Latin-1 file and a UTF-8 document with non-ASCII state names.
    d, _ = random_reduced_pdfa(rng, 3, ALPHABETS[1])
    rootless = write("rootless", _pdfa_doc(rng, d, None))
    cmds += [
        ["validate", "missing.json"],
        ["unfold", "missing.json", "--radius", "1"],
        ["iso", "missing.json", reduced[0]],
        ["unfold", rootless, "--radius", "2"],
        ["iso", rootless, rootless],
        ["reroot", rootless, "--word", "a"],
    ]
    names = PDfa({"é", "ß"}, ALPHABETS[1], {("é", "a"): "é", ("é", "b"): "ß", ("ß", "b"): "ß"})
    uf = write("utf8", _pdfa_doc(rng, names, "é"))
    text = json.dumps(_pdfa_doc(rng, names, "é"), ensure_ascii=False)
    latin = "latin1.json"
    (directory / latin).write_bytes(text.encode("latin-1"))
    for f in (uf, latin):
        cmds += [
            ["validate", f],
            ["unfold", f, "--radius", "2"],
            ["unfold", f, "--state", "ß", "--radius", "2"],
            ["iso", f, f, "--state", "é", "--state", "ß", "--witness"],
            ["reroot", f, "--word", "a b"],
            ["minimize", f, "--trim"],
        ]
    return cmds


def _digest(code: int, out: str, err: str, written: list[tuple[str, bytes | None]]) -> str:
    h = hashlib.sha256(f"{code}\0{out}\0{err}\0".encode("utf-8"))
    for name, data in written:
        h.update(name.encode("utf-8") + b"\0" + (b"-" if data is None else b"+" + data) + b"\0")
    return h.hexdigest()[:16]


def run_commands(cmds: list[list[str]]) -> list[str]:
    """Run each command in-process from the current directory, with the
    digest line of each."""
    lines = []
    for args in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(args)
        targets = [args[i + 1] for i, a in enumerate(args) if a in ("--out-a", "--out-b")]
        written = [(p, Path(p).read_bytes() if Path(p).exists() else None) for p in targets]
        lines.append(f"{shlex.join(args)}  {_digest(code, out.getvalue(), err.getvalue(), written)}")
    return lines


def digest_lines() -> list[str]:
    """Write the corpus into a fresh directory and run it from there."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        cmds = write_corpus(Path(tmp))
        os.chdir(tmp)
        try:
            return run_commands(cmds)
        finally:
            os.chdir(here)


def read_digest_file() -> list[str]:
    return DIGEST_FILE.read_text(encoding="utf-8").splitlines()


def main(argv: list[str]) -> int:
    text = "".join(line + "\n" for line in digest_lines())
    if argv == ["--regen"]:
        DIGEST_FILE.parent.mkdir(exist_ok=True)
        DIGEST_FILE.write_bytes(text.encode("utf-8"))
    elif not argv:
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:
        print("usage: corpus.py [--regen]", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
