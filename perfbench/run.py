"""End-to-end and per-layer benchmark of the ccnscale sweep pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload trial_adhoc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times passes of the workload with tracing off and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics of the traced ones, plus the tracing
overhead.  Every run checks the outputs.  The last line of standard output
is one JSON object; the exit code is non-zero if any check failed.  A
fuller record (environment, sample counts, failed checks, spans) goes to
``perfbench/out/``.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("trial_adhoc", "trial_hetero", "sweep_theory", "sweep_sim")

# Fresh interpreters started to time set-up; the median is reported.  One
# starts before the run and, with tracing off, one before each pass, so the
# samples span the same stretch of time as the passes; the rest, up to the
# minimum, follow the last pass.
SETUP_MIN = 9
SETUP_MAX = 15

# Units of the reported metrics; a name not listed here is a count.
_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cli.pool_overlap": "ratio",
    "cli.pool_speedup": "ratio",
    "alloc.kkt_residual_max": "ratio",
    "sim.mean_hops": "hops",
    "sim.fallback_rate": "ratio",
    "kernels.requests_per_s": "1/s",
    "kernels.input_bytes_computed": "B",
}


def _unit(name: str) -> str:
    return _UNITS.get(name, "s" if name.endswith("_s") else "count")


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def setup_sample() -> float:
    """Wall time from a fresh interpreter to ``import ccnscale`` done and
    the kernel backend ready."""
    code = "import ccnscale; ccnscale.get_backend()"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env_with_src(), cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"import ccnscale failed:\n{proc.stderr}")
    return elapsed


def src_digest() -> str:
    """sha256 over the package source files: identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ccnscale").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree of
    its own (a source export, or a directory inside another repository)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment() -> dict:
    import numpy

    import ccnscale

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "backend": ccnscale.get_backend(),
        "CCNSCALE_BACKEND": os.environ.get("CCNSCALE_BACKEND", ""),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ccnscale": ccnscale.__version__,
    }


def backend_parity() -> tuple[str, str]:
    """Compiled kernel vs the pure-Python reference on small instances.

    Returns ("passed" | "failed" | "unchecked", detail).  With only the
    Python backend active there is nothing to compare, and parity is
    reported as unchecked, never as passed.
    """
    import numpy as np

    from ccnscale import _kernels, sim
    from ccnscale._kernels import _ref
    from ccnscale.alloc import round_to_integers, solve
    from ccnscale.config import Mode, NetworkConfig

    if _kernels.get_backend() == "python":
        return "unchecked", "only the python backend is active"
    points = [
        NetworkConfig(n=2000, alpha=0.8, beta=0.9),
        NetworkConfig(n=2000, alpha=1.2, beta=0.9, mode=Mode.HETEROGENEOUS, mu=0.4),
    ]
    for cfg in points:
        prob = cfg.problem()
        inst = sim.build_instance(cfg, round_to_integers(solve(prob), prob), seed=3)
        req = sim.draw_requests(inst, cfg.popularity(), seed=4)
        args = (
            inst._xs, inst._ys, inst.grid.side, req, inst._h_idx, inst._h_start,
            inst._hc_idx, inst._hc_cell, inst.base_stations[:, 0],
            inst.base_stations[:, 1],
        )
        got = _kernels.trace_batch(*args)
        want = _ref.trace_batch(*args)
        if not all(np.array_equal(a, b) for a, b in zip(got, want)):
            return "failed", f"trace_batch diverged from _ref on {cfg}"
    return "passed", f"{len(points)} instances bit-identical"


def run_passes(workload, probe, seconds: float, trace: bool, setup: list) -> list[dict]:
    """Timed passes until ``seconds`` are used; with ``trace``, alternate
    untraced and traced passes and keep at least one of each.  Without
    ``trace``, a set-up sample goes to ``setup`` before each pass, outside
    the pass's time."""
    from probe import layer_metrics

    passes = []
    start = time.perf_counter()
    k = 0
    while True:
        if not trace and len(setup) < SETUP_MAX:
            setup.append(setup_sample())
        probe.tracing = trace and k % 2 == 1
        t0 = time.perf_counter()
        try:
            with probe.span("bench.pass", item=k):
                workload.body(k)
        except Exception as exc:  # the pipeline failed: count it, stop timing
            traceback.print_exc()
            probe.check(f"pass {k} ran", False, repr(exc))
            passes.append(dict(traced=probe.tracing, wall=None, rec=probe.take()))
            break
        wall = time.perf_counter() - t0
        rec = probe.take()
        if probe.tracing:
            rec["layers"] = layer_metrics(rec)
        # Keeping every pass's per-trial arrays would make peak RSS grow
        # with the number of passes.
        del rec["measurements"]
        passes.append(dict(traced=probe.tracing, wall=wall, rec=rec))
        k += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        kinds = {p["traced"] for p in passes}
        if elapsed + 0.5 * typical >= seconds and (not trace or len(kinds) == 2):
            break
    probe.tracing = False
    return passes


def summarize(passes, final, setup, trace, pooled) -> tuple[dict, dict, list]:
    """Metrics (value, unit), their sample counts, and every check run.

    ``pooled`` is the wall time of one pass on the default thread pool, or
    None.  A metric with no sample, as after a failed first pass, is left
    out.
    """
    checks = [c for p in passes for c in p["rec"]["checks"]] + final["checks"]
    ok = [p for p in passes if p["wall"] is not None]
    untraced = [p["wall"] for p in ok if not p["traced"]]
    if not trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        samples = {
            "setup_s": setup,
            "wall_s": untraced,
            "peak_rss_mb": [peak_kb / 1024.0],
        }
    else:
        traced = [p["rec"]["layers"] for p in ok if p["traced"]]
        samples = {key: [t[key] for t in traced] for key in (traced[:1] or [{}])[0]}
        if traced and untraced:
            samples["trace.untraced_wall_s"] = untraced
            overhead = statistics.median(samples["trace.wall_s"]) - statistics.median(untraced)
            samples["trace.overhead_s"] = [overhead]
            speedup = statistics.median(untraced) / pooled if pooled else 0.0
            samples["cli.pool_speedup"] = [speedup]
    metrics = {
        key: {"value": statistics.median(values), "unit": _unit(key)}
        for key, values in samples.items()
        if values
    }
    return metrics, {key: len(samples[key]) for key in metrics}, checks


def run_one(args) -> int:
    setup = [setup_sample()]
    sys.path.insert(0, str(SRC))
    import ccnscale

    if Path(ccnscale.__file__).resolve().parent != SRC / "ccnscale":
        raise SystemExit(f"imported ccnscale from {ccnscale.__file__}, not {SRC}")
    import workloads
    from probe import Probe

    env = environment()
    parity, parity_detail = backend_parity()
    probe = Probe()
    workload = workloads.make(args.workload)
    probe.adhoc = workload.adhoc
    probe.install()
    try:
        workload.start(args.seed, probe, env)
        passes = run_passes(workload, probe, args.seconds, bool(args.trace), setup)
        pooled = None
        if passes[-1]["wall"] is not None:
            if args.trace:
                pooled = workload.pooled_wall()
            workload.final()
        final = probe.take()
    finally:
        probe.uninstall()
    while not args.trace and len(setup) < SETUP_MIN:
        setup.append(setup_sample())
    if parity != "unchecked":
        final["checks"].append(
            ("compiled backend matches _ref", parity == "passed", parity_detail)
        )

    metrics, samples, checks = summarize(
        passes, final, setup, bool(args.trace), pooled
    )
    failed = [c for c in checks if not c[1]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "parity": {"status": parity, "detail": parity_detail},
        "metrics": metrics,
        "samples": samples,
        "checks": {"attempted": len(checks), "failed": [list(c) for c in failed]},
        "passes": [
            {"index": i, "traced": p["traced"], "wall_s": p["wall"]}
            for i, p in enumerate(passes)
        ],
        "spans": [
            dict(s.as_dict(), pass_index=i)
            for i, p in enumerate(passes)
            for s in p["rec"]["spans"]
        ],
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"parity {parity}: {parity_detail}")
    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']} (n={samples[key]})")
    for name, _, detail in failed:
        print(f"FAILED check: {name} {detail}")
    print(f"checks: {len(checks) - len(failed)}/{len(checks)} passed; record in {out_file}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1800)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})")
            merged["correct"] = False
            status = 1
            continue
        status = status or proc.returncode
        merged["correct"] &= child["correct"]
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        for key, m in child["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ccnscale" / "__init__.py").is_file():
        print(f"no ccnscale source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
