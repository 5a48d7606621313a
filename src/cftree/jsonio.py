"""JSON documents for automata, finite trees and reachability instances.

Document shapes (field order irrelevant, unknown fields rejected):

automaton::

    { "alphabet": { "letters": [..], "inverse": {letter: letter} },
      "kind": "mnfa" | "pdfa",
      "states": [..],
      "transitions": [ {"id": int, "from": state, "label": letter, "to": state} ],
      "root": state }                      # optional

tree (one edge listed per involutive pair, either orientation)::

    { "radius": int, "root": id,
      "nodes": [ {"id": str, "label": str} ],
      "edges": [ {"from": id, "label": letter, "to": id} ] }

reachability instance::

    { "n": int, "edges": [[u, v], ...] }

Writers emit a fixed field order and sorted collections, so output is
byte-identical across runs.  ``automaton_to_doc`` and ``tree_to_doc`` give
a document as dicts.  ``automaton_to_json`` and ``tree_to_json`` give, byte
for byte, the standard library's ``json.dumps(doc, indent=2)`` of the same
document plus a newline, which is every document the CLI writes: each row
is one f-string filled straight from the transitions or the disc's lists,
with no dict per row and no pass of the standard library's pure-Python
indenting encoder.  Readers check each row in one pass and build an error
message only for a row that fails.  A strict "pdfa" document is read
straight into the automaton's integer index, so the pDFA holds no
``delta`` map until one is read.
"""

from __future__ import annotations

import json
from itertools import repeat
from operator import itemgetter
from typing import Any

from .alphabet import InvolutiveAlphabet, involutive_closure
from .automata import MNfa, PDfa, Transition, _blank_index, _Index, _sorted_transitions
from .errors import CFTreeError, SchemaError
from .reductions import Gap2Instance
from .unfolding import DiscTree


def _require_fields(doc: dict, required: set[str], optional: set[str], what: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{what} is missing fields: {sorted(missing)}")
    unknown = set(doc) - required - optional
    if unknown:
        raise SchemaError(f"{what} has unknown fields: {sorted(unknown)}")


_TRANSITION_FIELDS = frozenset({"id", "from", "label", "to"})
_NODE_FIELDS = frozenset({"id", "label"})
_EDGE_FIELDS = frozenset({"from", "label", "to"})


def _is_int(value: Any) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, int) and not isinstance(value, bool)


def _string_list(value: Any, what: str) -> list[str]:
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
        raise SchemaError(f"{what} must be a list of strings")
    return value


def alphabet_from_doc(doc: Any) -> InvolutiveAlphabet:
    _require_fields(doc, {"letters", "inverse"}, set(), "alphabet")
    letters = _string_list(doc["letters"], "alphabet.letters")
    inverse = doc["inverse"]
    if not isinstance(inverse, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in inverse.items()
    ):
        raise SchemaError("alphabet.inverse must map letters to letters")
    try:
        return InvolutiveAlphabet(letters, inverse)
    except CFTreeError as e:
        raise SchemaError(f"bad alphabet: {e}") from e


def alphabet_to_doc(alphabet: InvolutiveAlphabet) -> dict:
    inv = alphabet.inverse_map()
    return {
        "letters": alphabet.sorted_letters(),
        "inverse": {a: inv[a] for a in alphabet.sorted_letters()},
    }


def automaton_from_doc(doc: Any, *, strict: bool = True) -> tuple[MNfa | PDfa, str | None]:
    """Build an automaton from a document.

    With ``strict`` (the default), transitions must reference known states
    and letters, and a "pdfa" document must actually be deterministic.
    Non-strict loading checks only the document shape, so a validation pass
    can report every semantic problem at once.
    """
    _require_fields(doc, {"alphabet", "kind", "states", "transitions"}, {"root"}, "automaton")
    alphabet = alphabet_from_doc(doc["alphabet"])
    kind = doc["kind"]
    if kind not in ("mnfa", "pdfa"):
        raise SchemaError(f'kind must be "mnfa" or "pdfa", not {kind!r}')
    states = _string_list(doc["states"], "states")
    root = doc.get("root")
    if kind == "pdfa" and strict and isinstance(doc["transitions"], list):
        index = _pdfa_index(states, alphabet, doc["transitions"], root)
        if index is not None:
            return PDfa._from_index(alphabet, index), root
    if len(set(states)) != len(states):
        raise SchemaError("duplicate state names")
    if not isinstance(doc["transitions"], list):
        raise SchemaError("transitions must be a list")
    rows: list[tuple[int, str, str, str]] = []
    for td in doc["transitions"]:
        if not isinstance(td, dict) or td.keys() != _TRANSITION_FIELDS:
            _require_fields(td, _TRANSITION_FIELDS, set(), "transition")
        tid, src, label, dst = td["id"], td["from"], td["label"], td["to"]
        if type(tid) is not int and not _is_int(tid):  # JSON ints skip the call
            raise SchemaError("transition id must be an integer")
        if not (isinstance(src, str) and isinstance(label, str) and isinstance(dst, str)):
            raise SchemaError("transition endpoints and label must be strings")
        rows.append((tid, src, label, dst))
    if root is not None and not isinstance(root, str):
        raise SchemaError("root must be a state name")

    if strict:
        if len({row[0] for row in rows}) != len(rows):
            raise SchemaError("duplicate transition ids")
        state_set, letters = set(states), alphabet.letters
        for tid, src, label, dst in rows:
            if src not in state_set or dst not in state_set:
                raise SchemaError(f"transition {tid} references unknown state")
            if label not in letters:
                raise SchemaError(f"transition {tid} uses unknown letter {label!r}")
        if root is not None and root not in state_set:
            raise SchemaError(f"root {root!r} is not a state")

    if kind == "pdfa":
        delta = {(src, label): dst for _, src, label, dst in rows}
        if len(delta) != len(rows):
            seen: set[tuple[str, str]] = set()
            for _, src, label, _ in rows:
                if (src, label) in seen:
                    raise SchemaError(
                        f'document says "pdfa" but transitions from {src!r} on {label!r} clash'
                    )
                seen.add((src, label))
        return PDfa(states, alphabet, delta), root
    return MNfa(states, alphabet, [Transition(*row) for row in rows]), root


def _pdfa_index(states: list[str], alphabet: InvolutiveAlphabet, rows: list, root: Any) -> _Index | None:
    """The index of a strict "pdfa" document, filled in one pass over its rows.

    None when the document is not accepted as it stands: a state name
    repeats (the index numbers fewer names than the list holds), a row is
    not an object with exactly the four fields or its id is no ``int``, a
    state or letter lookup fails, a column cell is already taken (a clash),
    an id repeats, or the root is not a state.  The caller then runs the
    checks in their documented order to name the problem.
    """
    ix, by_letter = _blank_index(list(states), alphabet)  # the document keeps its own list
    ids, masks = ix.ids, ix.masks
    if len(ids) != len(states):
        return None
    try:
        for td in rows:
            # Four entries and four successful lookups: exactly the four fields.
            if type(td) is not dict or len(td) != 4 or type(td["id"]) is not int:
                return None
            p, q = ids[td["from"]], ids[td["to"]]
            column, bit = by_letter[td["label"]]
            if column[p] >= 0:
                return None
            column[p] = q
            masks[p] |= bit
        if root is not None and root not in ids:
            return None
    except (KeyError, TypeError):  # a missing field, or an unknown or unhashable state, letter or root
        return None
    return ix if len({td["id"] for td in rows}) == len(rows) else None


def automaton_to_doc(aut: MNfa | PDfa, root: str | None = None) -> dict:
    kind = "mnfa" if isinstance(aut, MNfa) else "pdfa"
    doc: dict[str, Any] = {"alphabet": alphabet_to_doc(aut.alphabet), "kind": kind, "states": sorted(aut.states)}
    if kind == "mnfa":
        doc["transitions"] = [
            {"id": t.tid, "from": t.src, "label": t.label, "to": t.dst}
            for t in aut.transitions
        ]
    else:
        doc["transitions"] = [
            {"id": i, "from": p, "label": a, "to": q} for i, ((p, a), q) in enumerate(_sorted_transitions(aut))
        ]
    if root is not None:
        doc["root"] = root
    return doc


_encode = json.encoder.encode_basestring_ascii


class _Codes(dict):
    """Each string's JSON text, encoded the first time it is asked for."""

    def __missing__(self, s: str) -> str:
        code = self[s] = _encode(s)
        return code


def _block(items: list[str], nl: str, brackets: str = "[]") -> str:
    """The JSON texts ``items`` as an array, or with ``brackets="{}"`` the
    ``key: value`` texts ``items`` as an object, indented as
    ``json.dumps(…, indent=2)`` indents them where ``nl`` is a newline and
    the indent of the brackets."""
    if not items:
        return brackets
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _alphabet_json(alphabet: InvolutiveAlphabet, code: _Codes) -> str:
    """``alphabet_to_doc(alphabet)`` as a document's second-level field."""
    letters, inv = alphabet.sorted_letters(), alphabet.inverse_map()
    fields = [
        '"letters": ' + _block([code[a] for a in letters], "\n    "),
        '"inverse": ' + _block([code[a] + ": " + code[inv[a]] for a in letters], "\n    ", "{}"),
    ]
    return _block(fields, "\n  ", "{}")


def automaton_to_json(aut: MNfa | PDfa, root: str | None = None) -> str:
    """The text of ``automaton_to_doc(aut, root)`` as
    ``json.dumps(doc, indent=2)`` writes it, and a newline.

    Each transition is one f-string, its fields taken from the mNFA's
    transitions or from the pDFA's ``_sorted_transitions``, and each state
    name and letter is encoded once.
    """
    code = _Codes()
    if isinstance(aut, MNfa):
        kind, listing = "mnfa", aut.transitions
    else:
        kind, listing = "pdfa", ((i, p, a, q) for i, ((p, a), q) in enumerate(_sorted_transitions(aut)))
    rows = [
        f'{{\n      "id": {i},\n      "from": {code[p]},\n      "label": {code[a]},\n      "to": {code[q]}\n    }}'
        for i, p, a, q in listing
    ]
    fields = [
        '"alphabet": ' + _alphabet_json(aut.alphabet, code),
        f'"kind": "{kind}"',
        '"states": ' + _block([code[s] for s in sorted(aut.states)], "\n  "),
        '"transitions": ' + _block(rows, "\n  "),
    ]
    if root is not None:
        fields.append('"root": ' + code[root])
    return _block(fields, "\n", "{}") + "\n"


def _string_columns(rows: list, fields: tuple[str, ...]) -> list[list[str]] | None:
    """The columns ``fields`` of ``rows`` when every row is a dict with
    exactly those fields and every value a ``str``; else None, and the
    caller's row-by-row checks name the problem."""
    if set(map(type, rows)) <= {dict} and set(map(len, rows)) <= {len(fields)}:
        try:
            columns = [list(map(itemgetter(k), rows)) for k in fields]
        except KeyError:
            return None
        if all(set(map(type, col)) <= {str} for col in columns):
            return columns
    return None


def _checked_nodes(rows: list) -> list[list[str]]:
    names: list[str] = []
    labels: list[str] = []
    seen: set[str] = set()
    for nd in rows:
        if not isinstance(nd, dict) or nd.keys() != _NODE_FIELDS:
            _require_fields(nd, _NODE_FIELDS, set(), "node")
        v, label = nd["id"], nd["label"]
        if not (isinstance(v, str) and isinstance(label, str)):
            raise SchemaError("node id and label must be strings")
        if v in seen:
            raise SchemaError(f"duplicate node id {v!r}")
        seen.add(v)
        names.append(v)
        labels.append(label)
    return [names, labels]


def _checked_edges(rows: list, pos: dict[str, int]) -> list[list]:
    columns: list[list] = [[], [], []]
    for ed in rows:
        if not isinstance(ed, dict) or ed.keys() != _EDGE_FIELDS:
            _require_fields(ed, _EDGE_FIELDS, set(), "edge")
        u, a, v = ed["from"], ed["label"], ed["to"]
        if not (isinstance(u, str) and isinstance(a, str) and isinstance(v, str)):
            raise SchemaError("edge endpoints and label must be strings")
        if u not in pos or v not in pos:
            raise SchemaError(f"edge ({u!r}, {a!r}, {v!r}) references unknown node")
        for column, value in zip(columns, (pos[u], a, pos[v])):
            column.append(value)
    return columns


def tree_from_doc(doc: Any) -> DiscTree:
    """A tree document as a disc whose handles are the document's node ids.

    Node rows and edge rows are each read as columns when every row is
    well formed, and checked row by row otherwise.  One breadth-first walk
    from the root, which takes each node's neighbours by letter, then id,
    numbers the nodes and fills the disc's parent, letter and first-child
    lists as it goes.
    """
    _require_fields(doc, {"radius", "root", "nodes", "edges"}, {"alphabet"}, "tree")
    radius = doc["radius"]
    if not _is_int(radius):
        raise SchemaError("radius must be an integer")
    if not isinstance(doc["root"], str):
        raise SchemaError("root must be a node id")
    for key in ("nodes", "edges"):
        if not isinstance(doc[key], list):
            raise SchemaError(f"{key} must be a list")
    nodes = _string_columns(doc["nodes"], ("id", "label"))
    if nodes is None or len(set(nodes[0])) < len(nodes[0]):
        nodes = _checked_nodes(doc["nodes"])
    label_of = dict(zip(*nodes))
    names = sorted(label_of)  # numbers follow ids, so (letter, number) pairs sort by letter, then id
    labels = list(map(label_of.__getitem__, names))
    pos = dict(zip(names, range(len(names))))
    if doc["root"] not in pos:
        raise SchemaError("root is not a listed node")
    edges = _string_columns(doc["edges"], ("from", "label", "to"))
    if edges is not None and pos.keys() >= {*edges[0], *edges[2]}:
        edges = [list(map(pos.__getitem__, edges[0])), edges[1], list(map(pos.__getitem__, edges[2]))]
    else:
        edges = _checked_edges(doc["edges"], pos)
    letters = set(edges[1])
    if "alphabet" in doc:
        alphabet = alphabet_from_doc(doc["alphabet"])
        if not letters <= alphabet.letters:
            raise SchemaError("edge letters outside the declared alphabet")
    else:
        base = {a for a in letters if not a.endswith("^-1")}
        base |= {a[: -len("^-1")] for a in letters if a.endswith("^-1")}
        alphabet = involutive_closure(sorted(base) if base else ["a"])

    # Each listed edge stands for an involutive pair and may be written in
    # either orientation; a breadth-first walk from the root over the
    # symmetric adjacency orients everything parent-to-child.  A document
    # that is no tree fails the checks after the walk.
    adj: list[list[tuple[str, int]]] = [[] for _ in names]
    for u, a, v in zip(*edges):
        adj[u].append((a, v))
        adj[v].append((alphabet.inv(a), u))
    level = [-1] * len(names)
    level[pos[doc["root"]]] = 0
    order = [pos[doc["root"]]]
    parent, letter, off = [-1], [None], []
    for i, u in enumerate(order):  # ``order`` grows while it is read
        off.append(len(order))  # the number of u's first child
        if len(adj[u]) > 1:
            adj[u].sort()  # by letter, then id
        for a, v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                parent.append(i)
                letter.append(a)
                order.append(v)
    off.append(len(order))
    if len(order) != len(names):
        raise SchemaError("tree document is not connected")
    if len(edges[1]) != len(names) - 1:
        raise SchemaError("a tree on n nodes must list exactly n-1 edges")
    if radius < 0:
        raise SchemaError("bad tree document: radius must be non-negative")
    if level[order[-1]] > radius:
        raise SchemaError("bad tree document: node level exceeds the declared radius")
    return DiscTree._from_arrays(
        radius,
        doc["root"],
        alphabet,
        parent,
        letter,
        [labels[v] for v in order],
        [level[v] for v in order],
        off,
        names=[names[v] for v in order],
    )


def tree_to_doc(t: DiscTree) -> dict:
    ids = [f"v{i}" for i in range(len(t))]
    parent, letter = t._parent, t._letter
    return {
        "radius": t.radius,
        "root": ids[0],
        "alphabet": alphabet_to_doc(t.alphabet),
        "nodes": [{"id": v, "label": label} for v, label in zip(ids, t._label)],
        "edges": [{"from": ids[parent[c]], "label": letter[c], "to": ids[c]} for c in range(1, len(t))],
    }


def tree_to_json(t: DiscTree) -> str:
    """The text of ``tree_to_doc(t)`` as ``json.dumps(doc, indent=2)``
    writes it, and a newline.

    Each node and edge is one f-string, its fields taken from the disc's
    parent, letter and label lists; node ids ``v0…`` need no encoding, and
    each label and letter is encoded once.
    """
    code = _Codes()
    n, parent, letter = len(t), t._parent, t._letter
    nodes = [f'{{\n      "id": "v{v}",\n      "label": {code[x]}\n    }}' for v, x in enumerate(t._label)]
    edges = [
        f'{{\n      "from": "v{parent[c]}",\n      "label": {code[letter[c]]},\n      "to": "v{c}"\n    }}'
        for c in range(1, n)
    ]
    fields = [
        f'"radius": {t.radius}',
        '"root": "v0"',
        '"alphabet": ' + _alphabet_json(t.alphabet, code),
        '"nodes": ' + _block(nodes, "\n  "),
        '"edges": ' + _block(edges, "\n  "),
    ]
    return _block(fields, "\n", "{}") + "\n"


def gap2_from_doc(doc: Any) -> Gap2Instance:
    _require_fields(doc, {"n", "edges"}, set(), "reachability instance")
    if not _is_int(doc["n"]):
        raise SchemaError("n must be an integer")
    if not isinstance(doc["edges"], list):
        raise SchemaError("edges must be a list")
    edges = []
    for e in doc["edges"]:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_int(x) for x in e)):
            raise SchemaError("edges must be pairs of integers")
        edges.append((e[0], e[1]))
    try:
        return Gap2Instance(doc["n"], frozenset(edges))
    except ValueError as e:
        raise SchemaError(f"bad reachability instance: {e}") from e


def gap2_to_doc(g: Gap2Instance) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from e
    except RecursionError as e:  # the decoder recurses once per nesting level
        raise SchemaError(f"not valid JSON: nested too deeply ({e})") from e
