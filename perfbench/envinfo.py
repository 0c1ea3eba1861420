"""The environment a benchmark run measured on, and a check against the last.

Two runs are only comparable when they ran on the same cores, BLAS,
thread budget and kernel tier.  :func:`record` gathers those facts;
:func:`flag_changes` compares them with the previous run of the same
workload in the checkout's history file, so that a silent fallback to the
numpy kernel tier (no compiler) shows up as an environment change rather
than as a slowdown.
"""

from __future__ import annotations

import ctypes
import json
import platform
from pathlib import Path
from typing import Dict, List, Optional

#: keys that describe the code or the run, not the environment
_NOT_ENVIRONMENT = ("git_commit", "seed", "workload")


def _blas_library() -> Optional[str]:
    """Path of the OpenBLAS shared object this process has loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for line in maps.splitlines():
        path = line.split()[-1]
        if "openblas" in path.lower() and ".so" in path:
            return path
    return None


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    path = _blas_library()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def _blas_info() -> Dict[str, object]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor, version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        vendor = version = None
    return {"blas_vendor": vendor, "blas_version": version, "blas_threads": blas_threads()}


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record(root: Path, budget: Dict[str, int]) -> Dict[str, object]:
    """Everything a comparison between two runs must hold equal."""
    import numpy as np

    from repro.kernels import dispatch

    available = dispatch.available()  # probes, and builds the C tier once
    env: Dict[str, object] = {
        "nproc": budget["nproc"],
        "workers": budget["workers"],
        "blas_threads_per_worker": budget["blas_threads"],
        **_blas_info(),
        "kernel_tier": dispatch.default_kernel(),
        "kernel_tiers_available": list(available),
        "kernel_tiers_unavailable": sorted(dispatch.unavailable_reasons()),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(root),
    }
    return env


def flag_changes(history: Path, workload: str, env: Dict[str, object]) -> List[str]:
    """Differences from the previous run of ``workload``; appends this run.

    Returns one ``key: old -> new`` line per environment fact that changed
    (empty for the first run or an unchanged environment).
    """
    previous = None
    if history.is_file():
        for line in history.read_text().splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if entry.get("workload") == workload:
                previous = entry
    changes = []
    if previous is not None:
        for key in sorted(set(env) | set(previous)):
            if key in _NOT_ENVIRONMENT:
                continue
            if env.get(key) != previous.get(key):
                changes.append(f"{key}: {previous.get(key)!r} -> {env.get(key)!r}")
    history.parent.mkdir(parents=True, exist_ok=True)
    with history.open("a") as fh:
        fh.write(json.dumps({"workload": workload, **env}, sort_keys=True) + "\n")
    return changes
