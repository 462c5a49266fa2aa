"""The machine context printed with every benchmark result."""

from __future__ import annotations

import ctypes
import dataclasses
import importlib.metadata
import os
import platform
from pathlib import Path

import numpy as np

LIMITS = ("no system-wide tracing: spans come from wrappers inside the traced process; "
          "peak RSS is per-process rusage of each command (os.wait4), nothing machine-wide")


def _first_line(path: str, prefix: str) -> str:
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown"


def machine_context(args, sizes, command_env: dict[str, str], jobs: str) -> list[tuple[str, str]]:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        cgroup_memory = Path("/sys/fs/cgroup/memory.max").read_text().strip()
    except OSError:
        cgroup_memory = "unknown"
    rows = [
        ("workload", args.workload),
        ("seed", str(args.seed)),
        ("seconds", str(args.seconds)),
        ("trace", str(args.trace)),
        ("nproc", str(os.cpu_count())),
        ("cpus_usable", str(len(os.sched_getaffinity(0)))),
        ("cpu_model", _first_line("/proc/cpuinfo", "model name")),
        ("mem_total", _first_line("/proc/meminfo", "MemTotal")),
        ("cgroup_memory_max", cgroup_memory),
        ("python", platform.python_version()),
        ("numpy", np.__version__),
        ("scipy", importlib.metadata.version("scipy")),
        ("blas", f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()),
        ("blas_threads_default", _blas_threads()),
        ("blas_threads_commands", command_env.get("OPENBLAS_NUM_THREADS", "default")),
        ("jobs", jobs),
        ("limits", LIMITS),
    ]
    if sizes is not None:
        rows.append(("generator_sizes", ",".join(
            f"{k}={v}" for k, v in dataclasses.asdict(sizes).items())))
    return rows
