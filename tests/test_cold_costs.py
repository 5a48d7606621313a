import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_prints_one_line_per_alphabet():
    out = subprocess.run(
        [sys.executable, str(HERE / "cold_costs.py")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
    ).stdout.splitlines()
    assert [line.split()[:2] for line in out] == [["4", "letters"], ["12", "letters"]]
