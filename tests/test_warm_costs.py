import os
import subprocess
import sys
from pathlib import Path

from warm_costs import KINDS

HERE = Path(__file__).resolve().parent


def test_prints_one_line_per_kind_and_size():
    out = subprocess.run(
        [sys.executable, str(HERE / "warm_costs.py")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
    ).stdout.splitlines()
    assert [line.split()[:4] for line in out] == [[kind, "n", "=", str(n)] for kind, sizes in KINDS for n in sizes]
    for line in out:
        words = line.split()
        assert words[4::3] == ["iso_nonrooted", "_classes"] and words[6::3] == ["ms", "ms"]
        assert float(words[5]) > 0 and float(words[8]) > 0
