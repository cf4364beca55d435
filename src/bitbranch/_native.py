"""Build, cache and load the C kernels in ``_native.c``.

The library is compiled at first use with the system ``cc`` and cached
under ``$XDG_CACHE_HOME/bitbranch`` (default ``~/.cache/bitbranch``). The
cache key covers the source, the flags, the compiler version and the CPU
flags, because ``-march=native`` ties the binary to this CPU. Without a
compiler, or when the build fails, ``library()`` warns once and returns
None, and the callers run their numpy code instead.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

SOURCE = Path(__file__).with_name("_native.c")
# no fast-math, and no FMA contraction: the encoder must reproduce
# quant.quantize_odd's float operations exactly
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-trapping-math", "-fPIC",
         "-shared")

_lock = threading.Lock()


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.strip()
    except OSError:
        pass
    return platform.machine() + " " + platform.processor()


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(root) / "bitbranch"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    return path


def _build() -> ctypes.CDLL:
    """Compile the library into the cache unless it is there; load it."""
    source = SOURCE.read_bytes()
    version = subprocess.run(["cc", "--version"], capture_output=True, check=True).stdout
    key = hashlib.sha256()
    for part in (source, " ".join(FLAGS).encode(), version, _cpu_flags().encode()):
        key.update(part + b"\0")
    cache = _cache_dir()
    lib_path = cache / f"native-{key.hexdigest()[:24]}.so"
    if not lib_path.exists():
        # build beside the target and rename: a concurrent process never
        # sees a half-written library
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so.tmp")
        os.close(fd)
        try:
            # compile the very bytes that were hashed
            subprocess.run(["cc", *FLAGS, "-o", tmp, "-x", "c", "-", "-lm"], input=source,
                           capture_output=True, check=True)
            os.replace(tmp, lib_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(lib_path))
    # arrays go in as addresses: ndpointer's own checks cost about 10 us a call,
    # so the callers in gemm check dtype, shape and contiguity instead
    ptr, i64, cint, double = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.c_double
    # x, wt, rows, w_rows, q_pad, x_bits, w_bits, n_words, n, th, flip, levels, acc, codes
    lib.bb_gemm.argtypes = [ptr, ptr, i64, i64, i64, cint, cint, i64, i64, ptr, ptr, cint, ptr,
                            ptr]
    lib.bb_gemm.restype = None
    lib.bb_quantize.argtypes = [ptr, i64, cint, double, ptr]
    lib.bb_quantize.restype = i64
    lib.bb_gather.argtypes = [ptr, *[i64] * 7, cint, ptr]
    lib.bb_gather.restype = cint
    return lib


@functools.cache
def _load() -> ctypes.CDLL | None:
    try:
        return _build()
    except (OSError, subprocess.SubprocessError) as exc:
        detail = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()
        warnings.warn(f"bitbranch: native kernel unavailable ({exc}) {detail[-300:]}; "
                      "using the numpy kernel", RuntimeWarning, stacklevel=4)
        return None


def library() -> ctypes.CDLL | None:
    """The loaded kernel library, or None; built or loaded once per process."""
    with _lock:
        return _load()
