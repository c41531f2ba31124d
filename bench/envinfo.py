"""Thread limits and the environment block written into every result.

``limit_blas_threads`` must run before numpy is imported, so this
module imports numpy only inside the functions that need it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GET_THREADS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Run BLAS and OpenMP single-threaded, and drop ``COHEXP_SEED`` so
    that every op's seed is the one on its command line.

    One thread is within the ``nproc`` cap on any machine.  On the
    2-CPU machine in NOTES.md, two OpenBLAS threads made check-grid
    13% faster and its run-to-run spread three times wider.
    """
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("COHEXP_SEED", None)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library
    itself; None when no OpenBLAS is loaded or it cannot be asked."""
    import numpy  # noqa: F401  (loads BLAS)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _GET_THREADS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _ram_mib() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        pass
    return None


def git_commit(root: Path = ROOT) -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    ``unknown`` when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256(root: Path = ROOT) -> str:
    """Digest of the package sources, which identifies the code under
    test also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "cohexp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "ram_mib": _ram_mib(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "blas_thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "workload_seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def check_threads(env: dict) -> None:
    """Refuse to measure with more BLAS threads than CPUs."""
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        raise SystemExit(
            f"BLAS would use {env['blas_threads']} threads on {env['nproc']} CPUs"
        )


def prepare() -> None:
    """Cap the thread pools and make ``src`` importable; call before
    importing numpy or cohexp."""
    import sys

    limit_blas_threads()
    src = ROOT / "src"
    if not (src / "cohexp").is_dir():
        raise SystemExit(f"no package sources at {src / 'cohexp'}; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
