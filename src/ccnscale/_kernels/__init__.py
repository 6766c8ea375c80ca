"""Kernel backend selection.

Two interchangeable implementations of the routing kernel exist:

* ``ccnscale._kernels._fast`` — ``trace.c``, a hand-written C99 kernel
  loaded through ``ctypes`` and compiled into the user cache on first
  import (see ``_fast``);
* ``ccnscale._kernels._ref``  — pure Python, always available, and the
  reference that ``trace.c`` is a port of.

Both perform identical floating-point arithmetic and return identical
results.  The routing rules live only there, in ``trace_one``, which
routes one request; ``trace_batch`` runs it for every node.  Holders and
base stations go through one search, ``nearest``, on a layout that
``_ref`` alone builds in numpy (``grid_sides``, ``sort_buckets``,
``bucket_table``, ``station_layout``): each candidate set has a bucket
grid of its own, a bucket is one slice of the member array, and the
search visits the buckets ring by ring, each row of a ring one slice; a
set of one bucket is ring 0 of its own grid.  With base stations,
``trace_batch`` visits the requesters in cell order.  This module exports
``trace_batch``, and ``_ref``'s ``RING_MIN_HOLDERS`` for the benchmark;
the compiled library exports only its entry point, ``ccn_trace_batch``.
A single request is routed by ``_ref.trace_one`` whichever backend is
active (``sim.trace_request``).
The helpers (``segment_cells``, ``nearest_linear``, ``nearest``,
``grid_cells`` and the layout functions) are exposed only by ``_ref``.
Both ``trace_batch``es check their arguments with ``_ref.checked_args``
and raise ValueError on the same malformed ones.

The compiled backend is preferred when it loads; otherwise the dispatcher
falls back to ``_ref`` and records why in :data:`BACKEND_REASON` (``""``
while the compiled backend is active).  Set the environment variable
``CCNSCALE_BACKEND`` to ``python`` or ``compiled`` to force one (forcing
``compiled`` raises ImportError with the reason if it cannot load).
"""

from __future__ import annotations

import os

from . import _ref

_forced = os.environ.get("CCNSCALE_BACKEND", "").strip().lower()

BACKEND_REASON: str = ""
if _forced == "python":
    _impl = _ref
    BACKEND_REASON = "forced by CCNSCALE_BACKEND=python"
elif _forced in ("", "compiled"):
    try:
        from . import _fast as _impl  # type: ignore[no-redef]
    except ImportError as exc:
        if _forced == "compiled":
            raise ImportError(f"CCNSCALE_BACKEND=compiled: {exc}") from exc
        _impl = _ref  # type: ignore[assignment]
        BACKEND_REASON = str(exc)
else:
    raise RuntimeError(
        f"CCNSCALE_BACKEND={_forced!r}: expected 'python' or 'compiled'"
    )

BACKEND_NAME: str = _impl.BACKEND_NAME
RING_MIN_HOLDERS: int = _ref.RING_MIN_HOLDERS
trace_batch = _impl.trace_batch


def get_backend() -> str:
    """Name of the active kernel backend: ``python`` or ``compiled``."""
    return BACKEND_NAME
