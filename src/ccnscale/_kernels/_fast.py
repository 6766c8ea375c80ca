"""Compiled kernel backend: a ``ctypes`` binding of ``trace.c``.

``trace.c`` is a C99 port of ``_ref.py`` that performs the same IEEE-754
double arithmetic in the same order, so both backends return bit-identical
results.  Every routing rule lives there.  The library exports one entry
point, ``ccn_trace_batch``, behind :func:`trace_batch`; the helpers it is
built from are static in C, and only ``_ref`` exposes them.  A single
request is routed by ``_ref.trace_one`` (``sim.trace_request``).  The
wrapper below only checks its arguments and converts them to contiguous
int64/float64 arrays, through ``_ref.checked_args``, the checks the
reference backend makes too, so that the C code never reads or writes out
of bounds, and allocates every buffer the kernel uses:
the outputs, the path buffer, the int32 buffer into which the kernel
sorts the requesters by cell when the instance has base stations (empty
without them), and the bucket tables of holders and
stations, which ``_ref.bucket_table`` and ``_ref.station_layout`` build in
numpy for both backends on each call (``bucket_table`` also rejects a
bucket id off its content's grid).  The kernel reads the holders only as
``hc_idx`` and that table, with one search for every set; ``h_idx`` keeps
its slot in :func:`trace_batch`'s arguments, which the benchmark builds,
and is checked but not passed on.  The kernel allocates nothing, so a
call cannot fail once its inputs pass the checks.

The shared library lives at ``${XDG_CACHE_HOME:-~/.cache}/ccnscale/<key>/
trace.so``, where ``key`` is the sha256 of the source, the compile command
and the platform tag (OS and machine), so an edit of ``trace.c`` always
gets a fresh build.  A cache hit starts no process.  On a miss the first
import compiles it there with ``$CC`` (default ``cc``) and :data:`CFLAGS`,
through a temporary file moved into place with ``os.replace``, so
concurrent first imports are safe.

Nothing is ever written next to the sources.  Any failure, including a
library that lacks the kernel's entry point, raises :class:`ImportError`
with the reason, and the dispatcher in ``ccnscale._kernels`` falls back to
the pure-Python backend.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
from ctypes import c_int64
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from ._ref import bucket_table, checked_args, station_layout

BACKEND_NAME = "compiled"

# -ffp-contract=off: no FMA fusion, so float results stay bit-identical to
# the pure-Python backend.  Never add -ffast-math.
CFLAGS = ("-O3", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")

_HERE = Path(__file__).resolve().parent
SOURCE = _HERE / "trace.c"
# The platform tag in the suffix names the OS and the machine.
_PLATFORM_SUFFIX = EXTENSION_SUFFIXES[0]


def _cache_path(cc: list[str], source: bytes) -> Path:
    key = hashlib.sha256(source)
    for part in (*cc, *CFLAGS, _PLATFORM_SUFFIX):
        key.update(b"\0" + part.encode())
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "ccnscale" / key.hexdigest() / "trace.so"


def _build(cc: list[str], out: Path) -> None:
    """Compile ``trace.c`` to ``out`` atomically; raise ImportError on failure."""
    import subprocess  # only a cache miss pays for these imports
    import tempfile

    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="trace-", suffix=".so.tmp", dir=out.parent)
        os.close(fd)
    except OSError as exc:
        raise ImportError(f"cannot write the kernel build cache: {exc}") from None
    try:
        proc = subprocess.run(
            [*cc, *CFLAGS, "-o", tmp, str(SOURCE), "-lm"],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            raise ImportError(
                f"{shlex.join(cc)} failed to compile {SOURCE.name} "
                f"(exit {proc.returncode}): {proc.stderr.strip()[-2000:]}"
            )
        os.replace(tmp, out)
    except (OSError, subprocess.SubprocessError) as exc:
        raise ImportError(
            f"cannot compile {SOURCE.name} with {shlex.join(cc)}: {exc}"
        ) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


_F64 = ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
_I64 = ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_I32 = ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS")


def _load() -> ctypes.CDLL:
    try:
        cc = shlex.split(os.environ.get("CC", "")) or ["cc"]
        source = SOURCE.read_bytes()
    except (ValueError, OSError) as exc:
        raise ImportError(f"cannot build the compiled kernel: {exc}") from None
    path = _cache_path(cc, source)
    if not path.exists():
        _build(cc, path)
    try:
        lib = ctypes.CDLL(str(path))
        kernel = lib.ccn_trace_batch
    except (OSError, AttributeError) as exc:
        # AttributeError: a library without the kernel's entry point.
        raise ImportError(f"cannot load {path}: {exc}") from None
    # The nodes and requests; the holders and their bucket_table; the
    # stations and their station_layout; the visit-order buffer, the path
    # buffer and the outputs.
    kernel.argtypes = [
        c_int64, _F64, _F64, c_int64, _I64, _I64, _I64, _I64, _I64, _F64, _F64,
        c_int64, _I64, _I64, _I32, _I64, _I64, _I64, _I64,
    ]
    kernel.restype = None
    return lib


_lib = _load()


def trace_batch(xs, ys, g, req, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y):
    """Trace one request per node; returns (hops, loads, status).

    See ``_ref.trace_batch`` for the routing rules and status codes, and
    ``_ref.checked_args`` for the arguments it rejects.
    """
    xs, ys, g, req, _, h_start, hc_idx, hc_cell, bs_x, bs_y = checked_args(
        xs, ys, g, req, h_idx, h_start, hc_idx, hc_cell, bs_x, bs_y
    )
    n = len(xs)
    stations = station_layout(bs_x, bs_y)
    # Built before the outputs, so its temporaries are freed first.
    table = bucket_table(h_start, hc_cell)
    hops = np.zeros(n, dtype=np.int64)
    loads = np.zeros(g * g, dtype=np.int64)
    status = np.zeros(n, dtype=np.int64)
    # With stations the kernel visits the requesters in cell order, which
    # it writes here; checked_args keeps n within int32.
    order = np.empty(n if len(bs_x) else 0, dtype=np.int32)
    # Any walk takes fewer than g steps per axis, so at most 2g - 1 cells.
    path = np.empty(2 * g - 1, dtype=np.int64)
    _lib.ccn_trace_batch(
        n, xs, ys, g, req, hc_idx, *table, bs_x, bs_y, *stations, order, path,
        hops, loads, status,
    )
    return hops, loads, status
