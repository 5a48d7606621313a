import os
import subprocess
import sys
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent


def test_cli_output_matches_the_committed_digest():
    assert corpus.digest_lines() == corpus.read_digest_file()


def test_cli_output_is_the_same_under_two_hash_seeds():
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "corpus.py")],
            env={**env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
        )
        for seed in ("0", "1")
    ]
    outputs = [p.communicate()[0].decode("utf-8").splitlines() for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outputs[0] == outputs[1] == corpus.read_digest_file()
