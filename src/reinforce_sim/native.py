"""``kernels.c`` built, cached, loaded and typed: ``direct``'s
``direct_trials``, ``rwre``'s ``first_returns`` and ``struct philox``, the
C twin of ``RngStream``, whose words both loops read inline and whose
exported ``bitgen_t`` callbacks serve numpy's gamma draw.  The first
:func:`kernels` call, never an import, builds it with the system compiler
at ``-O3``, floating-point contraction off, and numpy's ``libnpyrandom``
into ``__pycache__/kernels-<hash>.so`` (a temporary directory if that
cannot be written).  The hash covers the source and the command, so a
library built from other text is never loaded; a build removes those of
other hashes.
"""
from __future__ import annotations

import ctypes
import os
import tempfile
from functools import cache
from pathlib import Path

import numpy as np

MAX_INT64 = 2**63 - 1


# The kernels' source and the command that builds them; the library is cached
# under a hash of all of it.
_SOURCE = Path(__file__).with_name("kernels.c")
_CC = "cc"
# -O3 runs direct_trials' event loop at 13 ns per event against 17 at -O2
# (a = 1, delta = 0, gap 2, on a 2-vCPU x86-64 VM with gcc 12), and
# first_returns in about 86 % of its time at -O2.  Neither level changes a
# bit of output: C evaluates each floating-point operation as written, in
# double, and -ffp-contract=off keeps gcc from fusing a multiply and an add
# into one rounding, which it may do by default on machines with FMA.  No
# flag of the -ffast-math family may join them, at any -O level.  numpy's
# include directory holds numpy/random/bitgen.h
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", f"-I{np.get_include()}")
# numpy's libnpyrandom holds random_standard_gamma, the draw of Generator.gamma
_LDFLAGS = (f"-L{Path(np.__file__).parent / 'random' / 'lib'}", "-lnpyrandom", "-lm")


@cache
def kernels() -> ctypes.CDLL:
    """The library, with ``direct_trials``, ``first_returns`` and libc's
    ``free``, which releases the log ``direct_trials`` allocates, typed."""
    library = _library(Path(__file__).with_name("__pycache__"))
    library.direct_trials.argtypes = [*[ctypes.c_uint64] * 3, ctypes.c_int64, ctypes.c_void_p,
                                      ctypes.c_int64, *[ctypes.c_double] * 2,
                                      *[ctypes.c_int64] * 4, ctypes.c_void_p, ctypes.c_void_p]
    library.direct_trials.restype = ctypes.c_int64
    library.free.argtypes, library.free.restype = [ctypes.c_void_p], None
    library.first_returns.argtypes = [*[ctypes.c_uint64] * 3, ctypes.c_int64,
                                      *[ctypes.c_uint64] * 2, *[ctypes.c_double] * 4,
                                      ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    library.first_returns.restype = ctypes.c_int64
    return library


def _library(cache_dir: Path) -> ctypes.CDLL:
    """The kernel library, loaded from ``cache_dir`` or built into it: built
    to a temporary file there and renamed into place, or, if ``cache_dir``
    cannot be written, built in a temporary directory removed once loaded.
    A library built into ``cache_dir`` replaces those built there under
    other hashes, which are removed as far as they can be."""
    import hashlib
    import subprocess

    source, command = _SOURCE.read_bytes(), [_CC, *_CFLAGS, *_LDFLAGS]
    key = hashlib.sha256(repr(command).encode() + b"\0" + source).hexdigest()[:16]
    path = cache_dir / f"kernels-{key}.so"
    if not path.exists():
        try:
            cache_dir.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        except OSError:
            with tempfile.TemporaryDirectory() as private:
                return _library(Path(private))
        os.close(fd)
        # the source text that was hashed; the libraries follow it, as the linker reads in order
        argv = [_CC, *_CFLAGS, "-x", "c", "-", "-o", tmp, *_LDFLAGS]
        try:
            done = subprocess.run(argv, input=source, capture_output=True, check=False)
            if done.returncode:
                raise RuntimeError(
                    f"building the kernel library failed: {' '.join(argv)} exited with "
                    f"{done.returncode}: {done.stderr.decode(errors='replace').strip()}")
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)
        for stale in cache_dir.glob("kernels-" + "[0-9a-f]" * 16 + ".so"):
            if stale != path:
                try:
                    stale.unlink()
                except OSError:
                    pass
    return ctypes.CDLL(str(path))
