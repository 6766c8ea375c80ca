"""Benchmark: compiled kernel backend vs the pure-Python reference.

Runs the full per-trial workload (nearest-holder search plus cell-path
tracing for one request per node) on identical inputs through both
backends, checks the outputs are bit-identical, and reports timings.

Usage:
    python3 benchmarks/bench_kernels.py [--n N] [--alpha A] [--beta B]
                                        [--repeats R] [--seed S]
"""

from __future__ import annotations

import argparse
import time

import numpy as np


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10_000, help="nodes")
    parser.add_argument("--alpha", type=float, default=0.8, help="popularity exponent")
    parser.add_argument("--beta", type=float, default=0.9, help="catalog exponent")
    parser.add_argument("--repeats", type=int, default=3, help="timed repetitions")
    parser.add_argument("--seed", type=int, default=0, help="instance seed")
    args = parser.parse_args()

    from ccnscale import sim
    from ccnscale._kernels import _ref
    from ccnscale.alloc import round_to_integers, solve
    from ccnscale.config import NetworkConfig

    try:
        from ccnscale._kernels import _fast
    except ImportError as exc:
        raise SystemExit(f"compiled backend unavailable: {exc}")

    cfg = NetworkConfig(n=args.n, alpha=args.alpha, beta=args.beta, seed=args.seed)
    prob = cfg.problem()
    allocation = round_to_integers(solve(prob), prob)
    inst = sim.build_instance(cfg, allocation, seed=args.seed + 1)
    req = sim.draw_requests(inst, cfg.popularity(), seed=args.seed + 2)
    trace_args = sim._trace_args(inst, req)

    print(
        f"workload: n={cfg.n}  M={cfg.M}  grid={inst.grid.side}x{inst.grid.side}  "
        f"alpha={cfg.alpha}  beta={cfg.beta}  cache budget={int(cfg.n * cfg.K)}"
    )

    results = {}
    timings = {}
    for name, mod in [("python", _ref), ("compiled", _fast)]:
        mod.trace_batch(*trace_args)  # warm-up
        best = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            out = mod.trace_batch(*trace_args)
            best = min(best, time.perf_counter() - t0)
        results[name] = out
        timings[name] = best
        rate = cfg.n / best
        print(f"  {name:>8}: {best * 1e3:9.2f} ms   ({rate:,.0f} requests/s)")

    same = all(
        np.array_equal(a, b) for a, b in zip(results["python"], results["compiled"])
    )
    print(f"outputs bit-identical: {same}")
    if not same:
        raise SystemExit("backend outputs diverged — investigate before trusting either")
    print(f"speedup: {timings['python'] / timings['compiled']:.1f}x")


if __name__ == "__main__":
    main()
