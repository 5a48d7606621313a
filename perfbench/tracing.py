"""Spans around the public functions of the ``cftree`` modules.

The tracer replaces each public function of a layer module with a wrapper,
in every ``cftree`` module that binds it (``isomorphism.trim`` as well as
``automata.trim``), and puts the originals back on ``uninstall``.  No file of
the library is changed.  A span records the op it belongs to, the function
name, start, end and the parent span; a few functions also get counts read
off their arguments and result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import FunctionType
from typing import Any, Callable

#: The modules of ``src/cftree`` that are timed as layers.  ``alphabet`` and
#: ``errors`` do too little work to be worth a span.
LAYERS = ("jsonio", "automata", "isomorphism", "rerooting", "unfolding", "compression", "reductions", "cli")


def _witness_len(args, result) -> dict:
    witness = result[1]
    return {"witness_len": len(witness.word)} if witness is not None else {}


def _product(args, result) -> dict:
    a, b = args[0], args[1]
    return {"product_pairs": len(a.states) * len(b.states), "equiv_pairs": len(result)}


#: Public functions left without a span, so that their time counts as the
#: self time of their one caller: argparse set-up and the entry point are
#: the CLI's own glue inside ``cli.run``, and in these workloads the three
#: ``automata`` helpers are only called by ``require_reduced``, ``trim`` and
#: ``as_pdfa``.
NOT_SPANNED = {
    "cli.build_parser",
    "cli.main",
    "automata.reducedness_violation",
    "automata.reachable_states",
    "automata.find_nondeterministic_pair",
}

#: Counts taken at a function's boundary: name -> f(args, result) -> counts.
COUNTERS: dict[str, Callable[[tuple, Any], dict]] = {
    "isomorphism.equivalence_table": _product,
    "isomorphism.iso_rooted": _witness_len,
    "isomorphism.iso_nonrooted": _witness_len,
    "reductions.reduce_gap2_to_rooted_iso": lambda args, r: {"states_out": len(r[0].states) + len(r[2].states)},
    "automata.trim": lambda args, r: {"states_out": len(r.states)},
    "rerooting.reroot_along_word": lambda args, r: {"states_out": len(r[0].states)},
    "compression.minimize": lambda args, r: {"classes": len(r.states)},
    "unfolding.unfold_pdfa": lambda args, r: {"nodes": len(r)},
    "jsonio.dumps": lambda args, r: {"bytes": len(r)},  # ASCII-only JSON
}


class Tracer:
    def __init__(self) -> None:
        # span: (op, name, start, end, parent index or -1)
        self.spans: list[tuple[int, str, float, float, int] | None] = []
        self.counts: dict[int, dict] = {}
        self.op = -1
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: FunctionType) -> Callable:
        spans, counts, stack = self.spans, self.counts, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (tracer.op, name, start, end, parent)
            if counter is not None:
                counts[idx] = counter(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function defined in a layer module."""
        modules = [m for k, m in sys.modules.items() if k == "cftree" or k.startswith("cftree.")]
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"cftree.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (isinstance(obj, FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and name not in NOT_SPANNED):
                    wrappers[id(obj)] = self._wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and isinstance(obj, FunctionType):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """One JSON line per span: op, name, start and end in µs, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                rec = {"i": i, "op": op, "name": name, "start_us": round(start * 1e6, 1),
                       "end_us": round(end * 1e6, 1), "parent": parent}
                rec.update(self.counts.get(i, {}))
                f.write(json.dumps(rec) + "\n")


def summarize(tracer: Tracer, op_groups: dict[int, str]) -> dict:
    """Per-function totals from the spans.

    ``op_groups[k]`` names the slot (kind and size) of op ``k``.
    Returns, per function name: calls, self and inclusive seconds, counts
    summed over calls, and the same split by op group.
    """
    child_time = [0.0] * len(tracer.spans)
    for op, name, start, end, parent in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_fn: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "counts": defaultdict(float)})
    per_group: dict[tuple[str, str], dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    for i, (op, name, start, end, parent) in enumerate(tracer.spans):
        dur = end - start
        for rec in (per_fn[name], per_group[(op_groups[op], name)]):
            rec["calls"] += 1
            rec["self_s"] += dur - child_time[i]
            rec["incl_s"] += dur
        for k, v in tracer.counts.get(i, {}).items():
            per_fn[name]["counts"][k] += v
            per_fn[name]["counts"][k + ".calls"] += 1
    return {"functions": per_fn, "groups": per_group}
