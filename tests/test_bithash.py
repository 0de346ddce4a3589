"""The logits and leaf gradients keep their bits: ``tests/bithash.py``,
run at one BLAS thread, prints ``tests/bithash.ref`` line for line.

The reference holds for one numpy build at one BLAS thread; see the
script's docstring for the command that regenerates it."""

import collections
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def test_digests_match_the_reference():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(TESTS / "bithash.py")], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = run.stdout.splitlines()
    want = (TESTS / "bithash.ref").read_text().splitlines()
    assert len(got) == len(want)
    moved = [(w, g) for w, g in zip(want, got) if w != g]
    counts = collections.Counter((w.split()[0], _kind(w)) for w, _ in moved)
    assert not moved, (
        f"{len(moved)} of {len(want)} digests moved: "
        + ", ".join(f"{count} {kind} on {workload}"
                    for (workload, kind), count in sorted(counts.items()))
        + f"; the first: {moved[0]}")


def _kind(line: str) -> str:
    """``logits``, ``grad`` or ``file`` (a model file) for a line of the
    form ``workload model [dropout=rate] kind ...``."""
    fields = line.split()
    return fields[3] if fields[2].startswith("dropout=") else fields[2]
