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
base stations go through one search, ``nearest``, which scans a set of at
most ``RING_MIN_HOLDERS`` members and searches a larger one ring by ring,
on a bucket grid of the set's own with about one member per bucket.  Both
backends read the buckets from one CSR table, built in numpy by
``_ref.bucket_table`` (holders, from the per-content bucket ids in
``hc_cell``) and ``_ref.station_layout`` (stations), so a bucket is one
slice of the member array.  This module exports ``trace_batch`` and
``RING_MIN_HOLDERS``; the compiled library exports only its entry point,
``ccn_trace_batch``, and the constant.  A single request is routed by
``_ref.trace_one`` whichever backend is active (``sim.trace_request``).
The helpers (``segment_cells``, ``nearest_linear``, ``nearest_ring``,
``grid_sides``, ``grid_cells``, ``bucket_table``, ``station_layout``)
are exposed only by ``_ref``.  The compiled backend is preferred when it
loads; otherwise the dispatcher falls back to ``_ref`` and records why in
:data:`BACKEND_REASON` (``""`` while the compiled backend is active).  Set
the environment variable ``CCNSCALE_BACKEND`` to ``python`` or
``compiled`` to force one (forcing ``compiled`` raises ImportError with
the reason if it cannot load).
"""

from __future__ import annotations

import os

_forced = os.environ.get("CCNSCALE_BACKEND", "").strip().lower()

BACKEND_REASON: str = ""
if _forced == "python":
    from . import _ref as _impl

    BACKEND_REASON = "forced by CCNSCALE_BACKEND=python"
elif _forced in ("", "compiled"):
    try:
        from . import _fast as _impl  # type: ignore[no-redef]
    except ImportError as exc:
        if _forced == "compiled":
            raise ImportError(f"CCNSCALE_BACKEND=compiled: {exc}") from exc
        from . import _ref as _impl  # type: ignore[no-redef]

        BACKEND_REASON = str(exc)
else:
    raise RuntimeError(
        f"CCNSCALE_BACKEND={_forced!r}: expected 'python' or 'compiled'"
    )

BACKEND_NAME: str = _impl.BACKEND_NAME
RING_MIN_HOLDERS: int = _impl.RING_MIN_HOLDERS
trace_batch = _impl.trace_batch


def get_backend() -> str:
    """Name of the active kernel backend: ``python`` or ``compiled``."""
    return BACKEND_NAME
