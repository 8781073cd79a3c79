"""Process set-up shared by every benchmark entry point.

Runs before numpy is imported: it puts the checkout's own ``src/`` first on
``sys.path`` (the benchmark measures the source next to it, never an
installed copy) and pins OpenBLAS to one thread. OpenBLAS would otherwise
start one thread per core of the host. The simulator's matrices are too
small to gain from more, and a second busy-waiting BLAS thread makes
timings depend on how the host schedules the other core, which
``calibrate.py`` cannot track.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".sweepbench_out"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Make ``import movable_ris`` load ``ROOT/src`` and pin BLAS to one thread.

    Exits with status 2 when the checkout holds no package source.
    """
    if not (SRC / "movable_ris" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source under {SRC}; run from a full checkout\n")
        raise SystemExit(2)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None
