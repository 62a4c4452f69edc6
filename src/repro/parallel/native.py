"""Native thread pools: the OpenBLAS builds numpy and scipy load.

numpy and scipy each ship their own OpenBLAS, and each starts a thread
pool sized to the host's cores when it loads.  A pipeline process loads
only numpy's: :mod:`repro.spectra.response` binds scipy's compiled
filter without importing ``scipy.signal``, so scipy's OpenBLAS loads
only when the caller imports something like ``scipy.linalg``.  A run's
parallelism is its worker pool (one level, as in the paper's OpenMP
code, whose Fortran bodies run sequentially), so BLAS threads inside
pool workers only compete with the other workers for the same cores.
:func:`single_threaded_blas` pins every loaded OpenBLAS to one thread
for the duration of a run, and every worker pool holds it while it is
open.

The libraries are found the way they are loaded: by walking the
process's loaded shared objects (``dl_iterate_phdr``) for files whose
name contains ``openblas`` and that export a get/set thread-count pair.
No module import is needed and nothing is loaded that was not already;
on a platform without ``dl_iterate_phdr`` no library is found and every
function here is a no-op.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from typing import Iterator

#: ``(get, set)`` thread-count symbols, tried in order per library:
#: numpy's 64-bit-integer build, then scipy's build.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


class _PhdrInfo(ctypes.Structure):
    # Only the leading fields of ``struct dl_phdr_info`` are read.
    _fields_ = [("dlpi_addr", ctypes.c_void_p), ("dlpi_name", ctypes.c_char_p)]


_PHDR_CALLBACK = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t, ctypes.c_void_p
)


def _loaded_paths() -> list[str]:
    """Paths of the loaded shared objects whose name mentions OpenBLAS."""
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (AttributeError, OSError):
        return []
    paths: list[str] = []

    def visit(info, _size, _data) -> int:
        name = info.contents.dlpi_name
        if name and b"openblas" in name.lower():
            paths.append(name.decode(errors="replace"))
        return 0

    iterate(_PHDR_CALLBACK(visit), None)
    return paths


def _controllers() -> dict[str, tuple]:
    """``{library path: (get, set)}`` for every loaded OpenBLAS."""
    found = {}
    for path in _loaded_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                get.argtypes = []
                set_.restype = None
                set_.argtypes = [ctypes.c_int]
                found[path] = (get, set_)
                break
    return found


def blas_threads() -> dict[str, int]:
    """Thread count of every loaded OpenBLAS, keyed by library path."""
    return {path: get() for path, (get, _) in _controllers().items()}


def set_blas_threads(counts: int | dict[str, int]) -> dict[str, int]:
    """Set every loaded OpenBLAS to ``counts``; return the previous counts.

    ``counts`` is one count for all libraries, or a mapping as returned
    by :func:`blas_threads` (libraries it does not name are left alone).
    A library already at its target is not called.  In a forked child
    the setter restarts the thread server the fork shut down, whatever
    the count, and the new threads spin before they sleep: measured on
    a 2-core host, 0.26 CPU-seconds per child, which made a run's first
    process-pool loop (P3) take 2–3× its CPU time.
    """
    previous = {}
    for path, (get, set_) in _controllers().items():
        target = counts if isinstance(counts, int) else counts.get(path)
        if target is None:
            continue
        previous[path] = current = get()
        if current != target:
            set_(target)
    return previous


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Pin every loaded OpenBLAS to one thread; restore on exit.

    Pools created inside the block fork from a pinned driver, so their
    workers inherit the pin; the process-pool initializer pins again
    for workers started by spawn or forkserver.  The caller's counts
    come back when the block exits, also when it raises.
    """
    previous = set_blas_threads(1)
    try:
        yield
    finally:
        set_blas_threads(previous)
