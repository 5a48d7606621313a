"""Time to verdict for the ``cftree`` library and CLI, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload nonrooted-pairs --seed 1 --seconds 30 --trace 0

Load is a closed loop in one process: one caller, one op at a time, no
threads.  The ops of a workload run in full cycles (see ``workloads.py``)
until ``--seconds`` have passed; every answer is checked outside the timed
region.  Every time is scaled by the machine's speed of the moment, measured
with interleaved reference work (see ``reference.py``).  With ``--trace 0``
the last line of stdout is a JSON object with the end-to-end metrics.  With
``--trace 1`` half the ops run traced, and the JSON object holds the
per-layer metrics, the tracing overhead among them.  ``--smoke`` shrinks
every ladder for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics, measured with tracing off.
END_TO_END = {
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ops_per_s": "1/s",
    "size_exponent": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, from the traced ops of a ``--trace 1`` run.  ``self_ms``
#: and ``calls`` are means per op; other counts are means per call.
PER_LAYER = {
    "isomorphism.equivalence_table.self_ms": "ms",
    "isomorphism.equivalence_table.calls": "count",
    "isomorphism.equivalence_table.product_pairs": "count",
    "isomorphism.equivalence_table.equiv_ratio": "ratio",
    "isomorphism.iso_nonrooted.self_ms": "ms",
    "isomorphism.iso_nonrooted.witness_len": "count",
    "isomorphism.iso_rooted.self_ms": "ms",
    "isomorphism.iso_rooted.witness_len": "count",
    "automata.require_reduced.self_ms": "ms",
    "reductions.reduce_gap2_to_rooted_iso.self_ms": "ms",
    "reductions.reduce_gap2_to_rooted_iso.states_out": "count",
    "automata.trim.self_ms": "ms",
    "automata.trim.calls": "count",
    "automata.trim.states_out": "count",
    "rerooting.reroot_along_word.self_ms": "ms",
    "rerooting.reroot_along_word.states_out": "count",
    "rerooting.reroot_step.self_ms": "ms",
    "rerooting.reroot_step.calls": "count",
    "automata.pdfa_to_mnfa.calls": "count",
    "automata.as_pdfa.calls": "count",
    "compression.minimize.self_ms": "ms",
    "compression.minimize.classes": "count",
    "compression.state_class.self_ms": "ms",
    "compression.compress_finite_tree.self_ms": "ms",
    "unfolding.unfold_pdfa.self_ms": "ms",
    "unfolding.unfold_pdfa.nodes": "count",
    "jsonio.loads.self_ms": "ms",
    "jsonio.automaton_from_doc.self_ms": "ms",
    "jsonio.automaton_to_doc.self_ms": "ms",
    "jsonio.dumps.self_ms": "ms",
    "jsonio.dumps.bytes": "count",
    "cli.run.self_ms": "ms",
    "jsonio.self_ms": "ms",
    "automata.self_ms": "ms",
    "isomorphism.self_ms": "ms",
    "rerooting.self_ms": "ms",
    "unfolding.self_ms": "ms",
    "compression.self_ms": "ms",
    "reductions.self_ms": "ms",
    "cli.self_ms": "ms",
    "tracing.ops_per_s_lost": "1/s",
}

SETUP_ROUNDS = 5
#: Reference work, as a share of the op time measured.
RUN_SHARE = 0.1
#: The tail is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10


def import_library() -> SimpleNamespace:
    """Import ``cftree`` afresh, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "cftree" or m.startswith("cftree.")]:
        del sys.modules[name]
    cf = importlib.import_module("cftree")
    mods = {m: importlib.import_module(f"cftree.{m}") for m in ("cli", "isomorphism", "jsonio", "reductions")}
    return SimpleNamespace(cf=cf, **mods)


def setup(workload: str, seed: int, smoke: bool, workdir: Path):
    """Set up ``SETUP_ROUNDS`` times; return the last set and the median
    time, unscaled.

    Each round starts from a collected heap, so that the garbage of the
    round before does not slow it down.
    """
    import workloads

    times, digests = [], set()
    for _ in range(SETUP_ROUNDS):
        gc.collect()
        start = time.perf_counter()
        lib = import_library()
        rng = random.Random(f"{workload}/{seed}")
        built = workloads.WORKLOADS[workload](lib, rng, smoke, workdir)
        times.append(time.perf_counter() - start)
        digests.add(built.digest)
    if len(digests) != 1:
        raise RuntimeError("instance generation is not deterministic")
    return built, statistics.median(times)


class Record(NamedTuple):
    slot: int
    instance: int
    start: float
    seconds: float
    ok: bool
    traced: bool
    #: What ``seconds`` was multiplied by when the run was scaled.
    scale: float = 1.0


def run_cycles(built, seconds: float, speed, tracer=None) -> list[Record]:
    """Run the number of full cycles that best fills ``seconds``; one record
    per op, its time scaled by the speed measured around it.

    A run stops after a cycle once another one would end more than half a
    cycle past ``seconds``, so its length stays within half a cycle of it.
    Only the op itself is timed; ``speed`` runs its reference work after
    each op and its check.  With a tracer, slot ``i`` runs instance
    ``k = c % len(pool)`` in cycle ``c`` and is traced when ``c // len(pool)
    + k + i`` is odd.  Each instance then alternates between traced and
    untraced runs, and the traced half of the slots changes every cycle, so
    a drift in the machine's speed hits both halves alike.
    """
    records = []
    start = time.perf_counter()
    cycle = 0
    while True:
        for i, slot in enumerate(built.slots):
            k = cycle % len(slot.pool)
            op = slot.pool[k]
            traced = tracer is not None and (cycle // len(slot.pool) + k + i) % 2 == 1
            if traced:
                tracer.op = len(records)
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op.run()
                raised = False
            except Exception:
                raised = True
                traceback.print_exc(file=sys.stderr)
            t1 = time.perf_counter()
            if traced:
                tracer.active = False
            ok = not raised and bool(op.check(result))
            records.append(Record(i, k, t0, t1 - t0, ok, traced))
            speed.after(t1 - t0)
        cycle += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycle / 2 > seconds:
            scales = [speed.factor(r.start, r.start + r.seconds) for r in records]
            return [r._replace(seconds=r.seconds * f, scale=f) for r, f in zip(records, scales)]


def group_means(built, records: list[Record]) -> dict[tuple[str, int], float]:
    """Mean op time per (kind, ladder size): the mean over the group's
    instances of each instance's mean time, so every instance weighs the
    same however many times it ran."""
    per_instance: dict[tuple[int, int], list[float]] = {}
    for r in records:
        per_instance.setdefault((r.slot, r.instance), []).append(r.seconds)
    per_group: dict[tuple[str, int], list[float]] = {}
    for (i, _), times in per_instance.items():
        slot = built.slots[i]
        per_group.setdefault((slot.kind, slot.size), []).append(statistics.fmean(times))
    return {group: statistics.fmean(means) for group, means in per_group.items()}


def group_medians(built, records) -> dict[tuple[str, int], float]:
    """Median op time per (kind, ladder size)."""
    per_group: dict[tuple[str, int], list[float]] = {}
    for r in records:
        slot = built.slots[r.slot]
        per_group.setdefault((slot.kind, slot.size), []).append(r.seconds)
    return {group: statistics.median(times) for group, times in per_group.items()}


def size_exponent(medians: dict[tuple[str, int], float]) -> float:
    """Least-squares slope of log(median op time) on log(ladder size).

    Pooled over kinds: each kind's points are centred on their own means,
    so kinds that differ in absolute cost share one growth exponent.
    """
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for (kind, size), med in medians.items():
        by_kind.setdefault(kind, []).append((math.log(size), math.log(med)))
    sxy = sxx = 0.0
    for points in by_kind.values():
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
    return sxy / sxx


def tail(times: list[float]) -> tuple[float, int]:
    """Value and percentile of the highest order statistic with at least
    ``TAIL_BEYOND`` ops above it (the maximum when there are too few ops)."""
    ordered = sorted(times)
    k = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[k - 1], math.floor(100 * k / len(ordered))


def end_to_end(built, records, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and what is printed beside them.

    The percentiles are taken with every op at the mean time of its kind
    and size over the run.  A single op's time follows the machine's fast
    or slow window of the moment; the mean over the run does not.
    """
    times = [r.seconds for r in records]
    means = group_means(built, records)
    smoothed = [means[(built.slots[r.slot].kind, built.slots[r.slot].size)] for r in records]
    tail_s, tail_pct = tail(smoothed)
    medians = group_medians(built, records)
    metrics = {
        "op_ms.p50": statistics.median(smoothed) * 1e3,
        "op_ms.tail": tail_s * 1e3,
        "ops_per_s": len(times) / sum(times),
        "size_exponent": size_exponent(medians),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "ops": len(times),
        "tail_percentile": tail_pct,
        "median_ms": {f"{kind}-{size}": med * 1e3 for (kind, size), med in sorted(medians.items())},
        "mean_ms": {f"{kind}-{size}": mean * 1e3 for (kind, size), mean in sorted(means.items())},
    }
    return metrics, extra


def per_layer(summary: dict, n_ops: int, lost: float, factor: float) -> dict:
    """The per-layer metrics; span times are scaled by ``factor``, the
    traced ops' mean scale factor."""
    import tracing

    fns = summary["functions"]
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        fn = fns.get(base)
        counts = fn["counts"] if fn else {}
        if field == "self_ms" and base in tracing.LAYERS:
            total = sum(v["self_s"] for k, v in fns.items() if k.split(".")[0] == base)
            metrics[name] = total / n_ops * 1e3 * factor
        elif field == "self_ms":
            metrics[name] = fn["self_s"] / n_ops * 1e3 * factor if fn else 0.0
        elif field == "calls":
            metrics[name] = fn["calls"] / n_ops if fn else 0.0
        elif field == "equiv_ratio":
            metrics[name] = counts["equiv_pairs"] / counts["product_pairs"] if counts else 0.0
        elif field == "ops_per_s_lost":
            metrics[name] = lost
        else:
            calls = counts.get(field + ".calls", 0)
            metrics[name] = counts[field] / calls if calls else 0.0
    return metrics


#: Functions whose inclusive time per call is printed per op group; these
#: are the rows of the hand-measured table the baseline is compared with.
BREAKDOWN_BY_GROUP = {
    "isomorphism.equivalence_table",
    "isomorphism.iso_nonrooted",
    "isomorphism.iso_rooted",
    "compression.minimize",
    "rerooting.reroot_along_word",
    "reductions.reduce_gap2_to_rooted_iso",
}


def print_breakdown(summary: dict, op_groups: list[str], op_seconds: float) -> None:
    """Human-readable per-layer tables: self time per function, and
    inclusive time per call split by the kind and size of op, all as
    measured, not scaled."""
    n_ops = len(op_groups)
    print(f"# traced ops: {n_ops}, mean op {op_seconds / n_ops * 1e3:.2f} ms unscaled")
    print(f"# {'function':48s} {'calls/op':>10s} {'self ms/op':>11s} {'share':>7s}")
    fns = sorted(summary["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, rec in fns:
        if rec["self_s"] / op_seconds < 0.001:
            continue
        print(f"# {name:48s} {rec['calls'] / n_ops:10.2f} {rec['self_s'] / n_ops * 1e3:11.3f} "
              f"{rec['self_s'] / op_seconds:7.1%}")
    print(f"# {'group':22s} {'function':42s} {'calls':>6s} {'incl ms/call':>13s}")
    for (group, name), rec in sorted(summary["groups"].items()):
        if name in BREAKDOWN_BY_GROUP:
            print(f"# {group:22s} {name:42s} {rec['calls']:6d} {rec['incl_s'] / rec['calls'] * 1e3:13.2f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["rooted-gap2", "nonrooted-pairs", "cli-docs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny ladders, for the benchmark's own test")
    parser.add_argument("--out", type=Path, help="also write every metric, the digest and counts here as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "cftree" / "__init__.py").is_file():
        print(f"error: no cftree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def mix_rate(built, records: list[Record], groups: set) -> float:
    """Ops per second of one cycle's ops of the given groups, each op at the
    mean time of its group."""
    means = group_means(built, records)
    times = [means[(s.kind, s.size)] for s in built.slots if (s.kind, s.size) in groups]
    return len(times) / sum(times)


def measure(args, workdir: Path) -> int:
    built, setup_s = setup(args.workload, args.seed, args.smoke, workdir)
    gc.collect()
    gc.freeze()  # keep the instance pool out of the collector's timed passes
    print(f"# workload {args.workload} seed {args.seed} digest {built.digest}")
    out = {"workload": args.workload, "seed": args.seed, "digest": built.digest}
    speed = reference.Speed(RUN_SHARE)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            records = run_cycles(built, args.seconds, speed, tracer)
        finally:
            tracer.uninstall()
        traced = [r for r in records if r.traced]
        untraced = [r for r in records if not r.traced]
        both = group_means(built, traced).keys() & group_means(built, untraced).keys()
        untraced_rate = mix_rate(built, untraced, both) if both else 0.0
        traced_rate = mix_rate(built, traced, both) if both else 0.0
        groups = {k: f"{built.slots[r.slot].kind}-{built.slots[r.slot].size}" for k, r in enumerate(records)}
        summary = tracing.summarize(tracer, groups)
        traced_s = sum(r.seconds for r in traced)
        unscaled_s = sum(r.seconds / r.scale for r in traced)
        print_breakdown(summary, [groups[k] for k, r in enumerate(records) if r.traced], unscaled_s)
        print(f"# tracing overhead: {untraced_rate - traced_rate:.4f} ops/s of {untraced_rate:.4f} untraced")
        tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
        result = per_layer(summary, len(traced), untraced_rate - traced_rate, traced_s / unscaled_s)
        units = PER_LAYER
    else:
        records = run_cycles(built, args.seconds, speed)
        # Set-up is scaled by the run's mean chunk time: chunks run right
        # after a set-up round, on a heap in flux, misread the machine.
        result, extra = end_to_end(built, records, setup_s * speed.factor())
        units = END_TO_END
        out.update(extra)
        print(f"# {extra['ops']} ops; tail is p{extra['tail_percentile']} with {TAIL_BEYOND} ops beyond")
        print("# median ms by kind-size: " + ", ".join(f"{g} {v:.1f}" for g, v in extra["median_ms"].items()))
        print("# mean ms by kind-size: " + ", ".join(f"{g} {v:.1f}" for g, v in extra["mean_ms"].items()))
    print(f"# speed: {len(speed.times)} reference chunks, mean {speed.chunk_ms():.4f} ms; "
          f"op times scaled by {statistics.fmean(r.scale for r in records):.4f} on average "
          f"to a {reference.CHUNK_MS} ms chunk")
    out["chunk_ms"] = speed.chunk_ms()
    failed = sum(1 for r in records if not r.ok)
    out["fail_ratio"] = failed / len(records)
    print(f"# fail_ratio {out['fail_ratio']:.6g} ({failed} of {len(records)} ops)")
    for name, value in result.items():
        print(f"{name} {value:.6g} {units[name]}")
    out["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result.items()}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
