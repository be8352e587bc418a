"""Process set-up shared by the benchmark's scripts, and the environment stamp.

Importing this module, before numpy is imported, limits the BLAS and OpenMP
pools to one thread, so no timing runs under the library's own thread
contention, and puts the checkout's ``src/`` first on ``sys.path``. It exits
with an error when the checkout holds no astn sources: the benchmark never
measures an installed copy.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
if not (SRC / "astn" / "__init__.py").is_file():
    sys.exit(f"perfbench: no astn sources under {SRC}")
sys.path.insert(0, str(SRC))


def source_sha256():
    """Hash of every astn source file, identifying the code even outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "astn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp(seed, input_seed, config):
    """What a result was measured on; ``loadavg_after`` is filled in at the end."""
    import numpy as np
    from astn import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": _kernels.active_backend(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": seed,
        "input_seed": input_seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
