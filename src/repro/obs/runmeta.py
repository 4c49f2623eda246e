"""Run provenance: which commit (and whether the tree was dirty) and
which interpreter/numpy produced a run.  The live journal's ``env``
frame carries :func:`environment` so a journal explains its own
numbers.
"""

from __future__ import annotations

import os
import platform
import subprocess
from functools import lru_cache
from pathlib import Path


def _git(args: list[str], cwd: str | None) -> str | None:
    where = cwd if cwd is not None else str(Path(__file__).resolve().parent)
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=where,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


@lru_cache(maxsize=None)
def git_sha(cwd: str | None = None) -> str | None:
    """HEAD commit of the repo containing ``cwd`` (or this file), or
    None outside a git checkout / without git."""
    out = _git(["rev-parse", "HEAD"], cwd)
    sha = out.strip() if out is not None else ""
    return sha or None


def git_dirty(cwd: str | None = None) -> bool | None:
    """Whether the working tree has uncommitted changes, or None
    outside a git checkout / without git.  Deliberately uncached: the
    tree can become dirty between two records of the same process."""
    out = _git(["status", "--porcelain"], cwd)
    if out is None:
        return None
    return bool(out.strip())


def numpy_version() -> str:
    import numpy

    return numpy.__version__


def environment() -> dict:
    """The provenance block of a journal's ``env`` frame: commit,
    dirty-tree flag, and toolchain versions."""
    return {
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "platform": platform.platform(),
        # Worker-pool timings mean nothing without the host's core count.
        "cpu_count": os.cpu_count(),
    }
