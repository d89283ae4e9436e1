"""Quiet numpy's OpenBLAS worker threads, once, when the package is imported.

OpenBLAS starts its worker threads when numpy loads it.  After that, and
after every threaded call, each worker busy-waits for 2**28 CPU cycles
(about 0.1 s) before it sleeps.  OpenBLAS reads that idle time from
``OPENBLAS_THREAD_TIMEOUT`` (log2 of the cycles) when the library loads,
and applies it whenever it starts the pool.  This module, imported before
anything else in the package, sets the variable to OpenBLAS's minimum,
``4`` (16 cycles), for numpy's first import, so the workers sleep as soon
as they are idle.  When numpy was imported earlier, it also has OpenBLAS
read the variable again and shuts the pool down; the next threaded call
starts it with the short timeout.  Then ``os.environ`` is put back as it
was.

A timeout the user exported wins: the step then does nothing.  The thread
count, and so every split and every output byte, stays as the BLAS build
and its settings make it.  With any other BLAS the step does nothing
beyond numpy's import.

The same lookup also gives ``projection.fit_pca`` numpy's LAPACK SVD
routine, ``scipy_dgesdd_64_``, so that PCA makes numpy's own ``dgesdd``
call in buffers it owns.  The lookup runs at most once a process: at
import when numpy was loaded first, else on the first ``fit_pca``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import sys
import threading
from typing import Callable, NamedTuple

_TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"
_MIN_TIMEOUT = "4"  # OpenBLAS clamps the log2 idle cycles to [4, 30]


# dgesdd(JOBZ, M, N, A, LDA, S, U, LDU, VT, LDVT, WORK, LWORK, IWORK, INFO):
# every argument by address, the integers 64-bit (numpy's OpenBLAS is an
# ILP64 build).  A CFUNCTYPE entry releases the GIL for the call, as numpy
# does; PyDLL's own entries keep it.
_DGESDD = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 14)


class _Entries(NamedTuple):
    shutdown: Callable[[], None]  # blas_thread_shutdown_
    read_env: Callable[[], None]  # openblas_read_env
    dgesdd: Callable[..., None]  # scipy_dgesdd_64_, the LAPACK call behind np.linalg.svd


@functools.cache
def _numpy_openblas() -> _Entries | None:
    """numpy's OpenBLAS entries (``_Entries``), or None when any of them is missing.

    numpy's wheels load ``libscipy_openblas64_*.so`` from the ``numpy.libs``
    directory beside the package; ``RTLD_NOLOAD`` takes that loaded copy
    and never loads another.  Another BLAS build has no such library or
    symbols.  Cached, so the lookup runs at most once.
    """
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.PyDLL(path, mode=os.RTLD_NOLOAD)
            return _Entries(
                lib.blas_thread_shutdown_,
                lib.openblas_read_env,
                _DGESDD(("scipy_dgesdd_64_", lib)),
            )
        except (OSError, AttributeError):
            pass
    return None


def _quiet_numpy_blas() -> None:
    """Import numpy with OpenBLAS's shortest idle timeout; see the module docstring.

    When numpy is already loaded, OpenBLAS rereads its settings and its pool
    is shut down.  OpenBLAS runs the same shutdown before every ``fork``,
    and its next threaded call restarts the pool at the same thread count.
    Shutting the pool down while another Python thread is inside BLAS can
    hang both, so that part runs only on the process's only Python thread.
    ``PyDLL`` keeps the GIL for each call, so no other thread can start
    before it returns.
    """
    if _TIMEOUT in os.environ:
        return
    loaded = "numpy" in sys.modules
    os.environ[_TIMEOUT] = _MIN_TIMEOUT
    try:
        import numpy  # noqa: F401  (OpenBLAS reads the timeout as it loads)

        entries = _numpy_openblas() if loaded else None
        if entries is not None and threading.active_count() == 1:
            entries.read_env()
            entries.shutdown()
    finally:
        del os.environ[_TIMEOUT]


_quiet_numpy_blas()
