"""Process environment of a benchmark run: BLAS pinning, program path, record.

Import this module before numpy: the BLAS thread count is read once, when
the library loads.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# one BLAS thread: every op is a single-threaded closed loop, and a second
# BLAS thread on a 2-core machine only adds contention to 6x6 products
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = "1"


class MissingProgram(RuntimeError):
    """The checkout holds no mirroratoms sources to benchmark."""


def use_checkout_program():
    """Put the checkout's ``src`` first on the path and import the package.

    Raises :class:`MissingProgram` when ``src/mirroratoms`` is absent or
    when the import resolves to a copy outside this checkout.
    """
    if not (SRC / "mirroratoms" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mirroratoms

    if Path(mirroratoms.__file__).resolve().parent != SRC / "mirroratoms":
        raise MissingProgram(
            f"mirroratoms resolved to {mirroratoms.__file__}, not {SRC}")
    return mirroratoms


def source_digest():
    """SHA-256 over the program's source files, in path order."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mirroratoms").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "blas_threads": {v: os.environ[v] for v in _BLAS_VARS},
    }
