"""The benchmark's workloads: seeded instances, the timed op, and its check.

A workload is a cycle of *slots*.  Each slot has a kind, a ladder size and a
small pool of instances; round ``c`` of the cycle runs instance ``c mod
len(pool)`` of every slot, so every instance repeats and the mix of kinds and
sizes is the same in every full cycle.  An op calls into ``cftree`` through
module attributes, so the tracer's wrappers are seen when they are
installed.  Checks run outside the timed region and use ``check.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import check
import gen


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Slot:
    kind: str
    size: int
    pool: list[Op] = field(default_factory=list)


@dataclass
class Built:
    slots: list[Slot]
    digest: str

    def __post_init__(self) -> None:
        # Spread each (kind, size) group evenly over the cycle, so that a
        # drift in machine speed during a cycle hits every group alike.
        count: dict[tuple[str, int], int] = {}
        for slot in self.slots:
            count[(slot.kind, slot.size)] = count.get((slot.kind, slot.size), 0) + 1
        seen: dict[tuple[str, int], int] = {}
        keyed = []
        for slot in self.slots:
            group = (slot.kind, slot.size)
            j = seen[group] = seen.get(group, -1) + 1
            keyed.append(((j + 0.5) / count[group], len(keyed), slot))
        self.slots = [slot for *_, slot in sorted(keyed)]


class Digest:
    """SHA-256 over a canonical JSON form of every generated input."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *parts: Any) -> None:
        self._h.update(json.dumps(parts, sort_keys=True, default=list).encode())
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def delta_items(delta: check.Delta) -> list:
    return sorted((p, x, q) for (p, x), q in delta.items())


def capture(lib: SimpleNamespace, argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- rooted-gap2


def build_rooted_gap2(lib, rng: random.Random, smoke: bool, workdir: Path) -> Built:
    """One op reduces a 2GAP instance and decides rooted isomorphism.

    Instances alternate between a planted 0 -> n-1 path (answer: not
    isomorphic) and a cut that makes n-1 unreachable (answer: isomorphic).
    One slot per size, so the median op is in the 2^12 group and the tail
    in the 2^14 one.  Eight graphs per size keep the group's mean time from
    hanging on one graph, which the seed would move.
    """
    sizes = (2**5, 2**6, 2**7) if smoke else (2**10, 2**12, 2**14)
    digest = Digest()
    slots = []
    for n in sizes:
        slot = Slot("gap2", n)
        for v in range(8):
            edges = gen.gap2_graph(rng, n, planted=v % 2 == 0)
            digest.add("gap2", n, edges)
            slot.pool.append(_gap2_op(lib, n, edges))
        slots.append(slot)
    return Built(slots, digest.hexdigest())


def _gap2_op(lib, n: int, edges: list[tuple[int, int]]) -> Op:
    g = lib.reductions.Gap2Instance(n, frozenset(edges))
    expect_iso = not check.reaches(n, edges)

    def run():
        a, ra, b, rb = lib.reductions.reduce_gap2_to_rooted_iso(g)
        return a, ra, b, rb, lib.isomorphism.iso_rooted(a, ra, b, rb)

    def verify(result) -> bool:
        a, ra, b, rb, (ok, witness) = result
        if ok != expect_iso:
            return False
        if ok:
            return witness is None
        return check.one_side_only(a.delta, ra, b.delta, rb, witness.word, witness.side)

    return Op(run, verify)


# ------------------------------------------------------------ nonrooted-pairs


def build_nonrooted_pairs(lib, rng: random.Random, smoke: bool, workdir: Path) -> Built:
    """One op is one ``iso_nonrooted`` call.

    Kind ``renamed`` pairs a random reduced pDFA with a copy of itself under
    a random renaming of the states; ``rerooted`` also moves the copy's root
    along a random readable word of up to 32 letters.  Both are isomorphic
    by construction.  Kind ``lifted`` is a 2GAP instance lifted to a
    non-rooted one, half of them with a planted path; reachability gives the
    answer.

    Slots per cycle, by the mean cost of their kind and size: 6 lifted
    (n=32, 64, 128) and 5 renamed n=200 | 11 rerooted n=200 | 3 renamed and
    3 rerooted n=400 | 1 rerooted n=800.  The median of the 29 then falls in
    the rerooted n=200 block, and with the 3 to 5 cycles a run makes, the
    11th slowest op in the rerooted n=400 block.  The median block is large
    so that its mean over a run hangs on many instances and ops.  Only rerooted pairs run at
    n=800: their table of marked pairs always outgrows the same set size,
    which keeps peak memory from depending on the seed.
    """
    sizes = (20, 40, 80) if smoke else (200, 400, 800)
    lifts = (2**2, 2**3, 2**4) if smoke else (2**5, 2**6, 2**7)
    cycle = [
        ("rerooted", sizes[2], 1),
        ("renamed", sizes[1], 3), ("rerooted", sizes[1], 3),
        ("renamed", sizes[0], 5), ("rerooted", sizes[0], 11),
        *(("lifted", n, 2) for n in lifts),
    ]
    alphabet = lib.cf.involutive_closure(["a", "b"])
    digest = Digest()
    slots = []
    for kind, n, count in cycle:
        for j in range(count):
            if kind == "lifted":
                # One slot planted first, the other cut first: every cycle
                # has one of each.
                pool = [_lifted_op(lib, rng, n, (v + j) % 2 == 0, digest) for v in range(2)]
                slots.append(Slot(kind, 2 * (1 << (n - 1).bit_length()), pool))
            else:
                pool = [_copy_op(lib, rng, alphabet, n, kind == "rerooted", digest) for v in range(2)]
                slots.append(Slot(kind, n, pool))
    return Built(slots, digest.hexdigest())


def _copy_op(lib, rng, alphabet, n: int, rerooted: bool, digest: Digest) -> Op:
    states, delta, root = gen.random_reduced_pdfa(rng, n)
    if rerooted:
        word = gen.readable_word(rng, delta, root, 32)
        states2, delta2, root2 = gen.reroot(delta, root, word)
    else:
        word = ()
        states2, delta2, root2 = states, delta, root
    states2, delta2, name = gen.rename(rng, states2, delta2, "t")
    root2 = name[root2]
    digest.add(n, delta_items(delta), root, list(word), delta_items(delta2), root2)
    a = lib.cf.PDfa(states, alphabet, delta)
    b = lib.cf.PDfa(states2, alphabet, delta2)
    return _nonrooted_op(lib, a, root, b, root2, True)


def _lifted_op(lib, rng, n: int, planted: bool, digest: Digest) -> Op:
    edges = gen.gap2_graph(rng, n, planted)
    digest.add("lifted", n, edges)
    g = lib.reductions.Gap2Instance(n, frozenset(edges))
    a, ra, b, rb = lib.reductions.reduce_rooted_to_nonrooted(
        *lib.reductions.reduce_gap2_to_rooted_iso(g)
    )
    return _nonrooted_op(lib, a, ra, b, rb, not check.reaches(n, edges))


def _nonrooted_op(lib, a, ra, b, rb, expect: bool) -> Op:
    verified: set = set()

    def run():
        return lib.isomorphism.iso_nonrooted(a, ra, b, rb)

    def verify(result) -> bool:
        ok, witness = result
        if ok != expect or (witness is None) == ok:
            return False
        if not ok or witness.word in verified:
            return True
        if lib.isomorphism.verify_nonrooted_witness(a, ra, b, rb, witness.word):
            verified.add(witness.word)
            return True
        return False

    return Op(run, verify)


# ------------------------------------------------------------------- cli-docs


def build_cli_docs(lib, rng: random.Random, smoke: bool, workdir: Path) -> Built:
    """One op is one ``cftree.cli.run`` call on a document written here.

    Every kind runs at three sizes, as (size, slots per cycle).  Three
    n=400 minimize slots put the 11th slowest op inside their block.
    Fourteen slots per cycle are cheaper than a 500-node compress and
    fourteen dearer, so the median is the middle of the four 500-node
    compress slots, whose cost hardly depends on the seed.  Neither
    statistic then falls on the edge between two kinds of op.
    """
    ladders = {
        "minimize": ((20, 1), (30, 1), (40, 3)) if smoke else ((200, 1), (300, 1), (400, 3)),
        "reroot": ((10, 1), (20, 1), (40, 1)) if smoke else ((100, 1), (200, 1), (400, 1)),
        "iso": ((2**5, 1), (2**6, 1), (2**7, 1)) if smoke else ((2**10, 1), (2**11, 1), (2**12, 1)),
        "compress": ((25, 7), (50, 4), (100, 1)) if smoke else ((250, 7), (500, 4), (1000, 1)),
        "unfold": ((50, 7), (100, 1), (200, 1)) if smoke else ((500, 7), (1000, 1), (2000, 1)),
    }
    makers = {
        "minimize": _minimize_op,
        "reroot": _reroot_op,
        "iso": _iso_op,
        "compress": _compress_op,
        "unfold": _unfold_op,
    }
    digest = Digest()
    slots = []
    for kind, ladder in ladders.items():
        for size, count in ladder:
            for j in range(count):
                slot = Slot(kind, size)
                for v in range(2):
                    path = workdir / f"{kind}-{size}-{j}-{v}"
                    slot.pool.append(makers[kind](lib, rng, size, v + j, path, digest))
                slots.append(slot)
    return Built(slots, digest.hexdigest())


def _alphabet_doc() -> dict:
    return {"letters": sorted(gen.LETTERS), "inverse": {x: gen.INV[x] for x in sorted(gen.LETTERS)}}


def _write_pdfa(path: Path, states, delta, root) -> None:
    doc = {
        "alphabet": _alphabet_doc(),
        "kind": "pdfa",
        "states": sorted(states),
        "transitions": [
            {"id": i, "from": p, "label": x, "to": q}
            for i, (p, x, q) in enumerate(delta_items(delta))
        ],
        "root": root,
    }
    path.write_text(json.dumps(doc))


class Repeat:
    """Byte-identical stdout across repetitions of one invocation."""

    def __init__(self) -> None:
        self.first: str | None = None

    def same(self, out: str) -> bool:
        if self.first is None:
            self.first = out
        return out == self.first


def _cli_op(lib, argv: list[str], first_check: Callable[[int, str], bool]) -> Op:
    """A CLI op whose first output gets the full check and every later one
    must repeat it byte for byte."""
    repeat = Repeat()

    def verify(result) -> bool:
        code, out, _ = result
        if repeat.first is None and not first_check(code, out):
            return False
        return repeat.same(out)

    return Op(lambda: capture(lib, argv), verify)


def _minimize_op(lib, rng, n, v, path: Path, digest: Digest) -> Op:
    states, delta, root = gen.random_reduced_pdfa(rng, n)
    digest.add("minimize", n, delta_items(delta), root)
    doc = path.with_suffix(".json")
    _write_pdfa(doc, states, delta, root)

    def first_check(code: int, out: str) -> bool:
        rep = check.language_classes(states, delta)
        got = json.loads(out)
        return (
            code == 0
            and got["root"] == rep[root]
            and set(got["states"]) == set(rep.values())
            and check.doc_transitions(got)
            == {(rep[p], x, rep[q]) for (p, x), q in delta.items()}
        )

    return _cli_op(lib, ["minimize", str(doc)], first_check)


def _reroot_op(lib, rng, k, v, path: Path, digest: Digest) -> Op:
    states, delta, root = gen.total_reduced_pdfa(rng, 40)
    word = gen.cycle_word(rng, delta, root, k)
    digest.add("reroot", k, delta_items(delta), root, list(word))
    doc = path.with_suffix(".json")
    _write_pdfa(doc, states, delta, root)

    def first_check(code: int, out: str) -> bool:
        _, want, want_root = gen.reroot(delta, root, word)
        got = json.loads(out)
        return code == 0 and check.same_language(check.doc_delta(got), got["root"], want, want_root)

    return _cli_op(lib, ["reroot", str(doc), "--word", ",".join(word)], first_check)


def _iso_op(lib, rng, n, v, path: Path, digest: Digest) -> Op:
    edges = gen.gap2_graph(rng, n, planted=v % 2 == 0)
    digest.add("iso", n, edges)
    # The documents ``cftree reduce-2gap`` writes, without its indentation,
    # which only slows the set-up down.
    a, ra, b, rb = lib.reductions.reduce_gap2_to_rooted_iso(lib.reductions.Gap2Instance(n, frozenset(edges)))
    doc_a, doc_b = path.with_suffix(".a.json"), path.with_suffix(".b.json")
    doc_a.write_text(json.dumps(lib.jsonio.automaton_to_doc(a, root=ra)))
    doc_b.write_text(json.dumps(lib.jsonio.automaton_to_doc(b, root=rb)))
    expect_iso = not check.reaches(n, edges)

    def first_check(code: int, out: str) -> bool:
        if code != (0 if expect_iso else 1):
            return False
        if expect_iso:
            return out == ""
        a, b = json.loads(doc_a.read_text()), json.loads(doc_b.read_text())
        word = out.split()
        left = check.readable(check.doc_delta(a), a["root"], word)
        right = check.readable(check.doc_delta(b), b["root"], word)
        return left != right

    return _cli_op(lib, ["iso", str(doc_a), str(doc_b), "--witness"], first_check)


def _compress_op(lib, rng, n, v, path: Path, digest: Digest) -> Op:
    nodes, edges = gen.munn_tree(rng, n)
    digest.add("compress", n, nodes, edges)
    ids = {w: f"n{i}" for i, w in enumerate(nodes)}
    doc = path.with_suffix(".json")
    doc.write_text(json.dumps({
        "radius": max(len(w) for w in nodes),
        "root": ids[()],
        "nodes": [{"id": ids[w], "label": "t"} for w in nodes],
        "edges": [{"from": ids[u], "label": x, "to": ids[w]} for u, x, w in edges],
    }))
    words = set(nodes)

    def first_check(code: int, out: str) -> bool:
        got = json.loads(out)
        height = max(len(w) for w in words)
        read = check.words_upto(check.doc_delta(got), got["root"], height + 1)
        return (
            code == 0
            and set(read) == words
            and len(got["states"]) == check.subtree_shapes(edges)
        )

    return _cli_op(lib, ["compress", str(doc)], first_check)


def _unfold_op(lib, rng, target, v, path: Path, digest: Digest) -> Op:
    states, delta, root = gen.total_reduced_pdfa(rng, 30)
    radius = 0
    while len(check.words_upto(delta, root, radius + 1)) <= target:
        radius += 1
    digest.add("unfold", target, delta_items(delta), root, radius)
    doc = path.with_suffix(".json")
    _write_pdfa(doc, states, delta, root)
    want = check.words_upto(delta, root, radius)

    def first_check(code: int, out: str) -> bool:
        return code == 0 and check.tree_doc_words(json.loads(out)) == want

    return _cli_op(lib, ["unfold", str(doc), "--radius", str(radius)], first_check)


WORKLOADS = {
    "rooted-gap2": build_rooted_gap2,
    "nonrooted-pairs": build_nonrooted_pairs,
    "cli-docs": build_cli_docs,
}
