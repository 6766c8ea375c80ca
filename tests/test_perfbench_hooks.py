"""The benchmark's hooks into the package.

``perfbench/`` passes the instance's kernel arrays by name and times the
pipeline by swapping package attributes for wrappers.  These tests run
those hooks on small inputs, so a rename in the package fails here rather
than only when the benchmark runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from ccnscale import _kernels, sim
from ccnscale._kernels import _ref
from ccnscale.alloc import round_to_integers, solve
from ccnscale.config import NetworkConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``run`` and ``probe`` modules, imported from its directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probe
    import run

    yield run, probe
    for name in ("run", "probe", "workloads"):
        sys.modules.pop(name, None)


def _bindings() -> dict:
    """Every attribute of every loaded ccnscale module, plus the instance init."""
    out = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "ccnscale" or name.startswith("ccnscale.")
        for attr, value in vars(mod).items()
    }
    out["NetworkInstance.__init__"] = sim.NetworkInstance.__init__
    return out


def _small_trial() -> None:
    cfg = NetworkConfig(n=2000, alpha=0.8, beta=0.9, seed=3)
    prob = cfg.problem()
    sim.run_trials(cfg, round_to_integers(solve(prob), prob), trials=1)


def test_backend_parity(bench):
    run, _ = bench
    status, detail = run.backend_parity()
    want = "unchecked" if _kernels.get_backend() == "python" else "passed"
    assert status == want, detail


def test_backend_parity_passes_the_package_kernel_arguments(bench, monkeypatch):
    # run.py builds the kernel's argument tuple itself; it must stay the one
    # sim._trace_args builds from the same instance and requests.
    run, _ = bench
    if _kernels.get_backend() == "python":
        pytest.skip("parity compares nothing with only the python backend")
    made, calls = [], []

    def build_instance(*args, **kwargs):
        made.append(build(*args, **kwargs))
        return made[-1]

    def draw_requests(*args, **kwargs):
        made.append(draw(*args, **kwargs))
        return made[-1]

    def trace_batch(*args):
        calls.append(args)
        return trace(*args)

    build, draw, trace = sim.build_instance, sim.draw_requests, _kernels.trace_batch
    monkeypatch.setattr(sim, "build_instance", build_instance)
    monkeypatch.setattr(sim, "draw_requests", draw_requests)
    monkeypatch.setattr(_kernels, "trace_batch", trace_batch)
    assert run.backend_parity()[0] == "passed"
    assert len(calls) == 2 and len(made) == 4
    for got, inst, req in zip(calls, made[::2], made[1::2]):
        want = sim._trace_args(inst, req)
        assert len(got) == len(want)
        assert got[2] == want[2]  # the grid side
        for k in (0, 1, 3, 4, 5, 6, 7):
            assert got[k] is want[k], k
        # The station columns are views made on each call.
        for a, b in zip(got[8:], want[8:]):
            assert a.flags.c_contiguous and np.array_equal(a, b)


def test_probe_counts_searches_by_the_package_rule():
    # probe.kernel_counts counts a ring search for a content of more than
    # _kernels.RING_MIN_HOLDERS holders; the kernels search a set ring by
    # ring when _ref.grid_sides gives it a side above 1.
    assert _kernels.RING_MIN_HOLDERS is _ref.RING_MIN_HOLDERS
    sizes = np.arange(10**4 + 1)
    np.testing.assert_array_equal(
        sizes > _kernels.RING_MIN_HOLDERS, _ref.grid_sides(sizes) > 1
    )


def test_probe_checks_pass_on_a_small_trial(bench):
    _, probe = bench
    p = probe.Probe()
    p.adhoc = True
    p.install()
    try:
        p.tracing = True
        _small_trial()
    finally:
        p.uninstall()
    rec = p.take()
    names = {name for name, _, _ in rec["checks"]}
    assert names == {"trial sum(loads) == hops_total", "ad hoc routing_failures == 0"}
    assert [c for c in rec["checks"] if not c[1]] == []
    layers = probe.layer_metrics(rec)
    assert layers["sim.trials"] == 1
    assert layers["kernels.requests"] == 2000
    assert layers["sim.instance_init_s"] > 0


def test_probe_uninstall_restores_every_binding(bench):
    _, probe = bench
    before = _bindings()
    p = probe.Probe()
    p.install()
    try:
        during = _bindings()
        swapped = [key for key, value in before.items() if during.get(key) is not value]
        assert "NetworkInstance.__init__" in swapped
        assert ("ccnscale.sim", "build_instance") in swapped
        _small_trial()
    finally:
        p.uninstall()
    after = _bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
