"""Run-to-run spread of the end-to-end metrics, against their bounds.

Runs the benchmark once per seed on each named workload, one run at a time,
and prints, per metric, the median and the distance between the first and
third quartile as a share of the median (``statistics.quantiles(n=4)``).
A spread at or above the metric's bound in ``BENCHMARK.json`` is marked.
From the root of a checkout::

    python3 perfbench/spread.py --seeds 1 2 3 4 5 --workload nonrooted-pairs
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        digests = set()
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            (digest,) = [line.split()[-1] for line in lines if line.startswith("# workload")]
            digests.add(digest)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  seed {seed}: " + " ".join(f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()),
                  flush=True)
        print(f"{workload}: {len(args.seeds)} seeds, {len(digests)} distinct instance digests")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            worst = max(worst, spread / bound)
            mark = "  OVER BOUND" if spread >= bound else ("  over a third" if spread >= bound / 3 else "")
            print(f"  {name:16s} median {med:12.5g}  spread {spread:7.2%}  bound {bound:.0%}{mark}")
    print(f"largest spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
