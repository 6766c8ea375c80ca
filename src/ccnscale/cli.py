"""Experiment driver: config-file parsing, parameter sweeps, CSV output.

A sweep config is a UTF-8 key-value text file (``key = value``, ``#``
comments).  Keys holding comma-separated lists are swept; the sweep grid
is their cross product, enumerated in a fixed key order so output rows
land in a deterministic order no matter how the work is scheduled.

For every grid point the driver computes the exact optimal allocation,
its predicted delay, and the closed-form delay/throughput orders; with
``sim = true`` (or ``--sim``) it also runs Monte-Carlo trials for points
with n up to ``max_sim_n``.  Rows are written to one CSV, log-log slope
regressions per curve to a second.  Theory columns depend only on the
config; simulation columns depend only on config plus seeds, so reruns
produce byte-identical files.

Exit codes: 0 success, 2 malformed config, 3 infeasible instance
(``alloc`` on an infeasible point, or a sweep where every row failed),
4 solver error (a solution failed its KKT optimality certificate).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import sys
import warnings
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__, _kernels, sim
from .alloc import optimized_delay, round_to_integers, solve
from .config import Mode, NetworkConfig
from .errors import (
    ConfigError,
    InfeasibleError,
    SolverError,
    UnsupportedRegimeError,
)
from .scaling import (
    ScalingRegime,
    m1_m2_orders,
    predicted_delay_order,
    predicted_throughput_order,
)

__all__ = [
    "Mode",
    "NetworkConfig",
    "RegressionResult",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "main",
    "parse_config",
    "run_sweep",
    "slope_regression",
]

CSV_SCHEMA_HEADER = f"# ccn-scale v{__version__} schema=1"


class _Key(NamedTuple):
    """How a config key is set: its default, a tuple for a sweep key; the
    kind of value it takes (``mode``, ``int``, ``bool``, ``real``,
    ``number``, which is a real or unset, or ``positive``); the least value
    of an integer; and how an unset value in a sweep key's list is written
    in the CSV headers."""

    default: object
    kind: str
    least: int | None = None
    unset: str = "none"


# Every config key.  Sweep keys come first and may hold comma-separated
# lists; their order fixes the row order of the sweep (cross product, last
# key fastest).  The others must be single-valued.
_KEYS = {
    "mode": _Key((Mode.ADHOC,), "mode"),
    "n": _Key((10_000,), "int"),
    "alpha": _Key((0.8,), "real"),
    "beta": _Key((0.9,), "real"),
    "K": _Key((1.0,), "real"),
    "delta": _Key((1.0,), "real"),
    "mu": _Key((None,), "number"),
    "f": _Key((None,), "number"),
    "cell_area": _Key((None,), "number", unset="auto"),
    "W": _Key(1.0, "positive"),
    "trials": _Key(4, "int", least=1),
    "seed": _Key(0, "int", least=0),
    "concentration_factor": _Key(4.0, "positive"),
    "sim": _Key(False, "bool"),
    "max_sim_n": _Key(100_000, "int", least=1),
}
_SWEEP_KEYS = tuple(k for k, spec in _KEYS.items() if isinstance(spec.default, tuple))
_SCALAR_KEYS = tuple(k for k in _KEYS if k not in _SWEEP_KEYS)
_CANON = {k.lower(): k for k in _KEYS}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _parse_atom(token: str, key: str, line: int):
    t = token.strip()
    low = t.lower()
    if low in {"", "none", "auto"}:
        return None
    if low == "true":
        return True
    if low == "false":
        return False
    kind = _KEYS[key].kind
    if kind == "mode":
        try:
            return Mode(low)
        except ValueError:
            raise ConfigError(
                f"mode must be 'adhoc' or 'heterogeneous', got {t!r}", line
            ) from None
    try:
        return int(t)
    except ValueError:
        pass
    try:
        value = float(t)
    except ValueError:
        raise ConfigError(f"cannot parse value {t!r} for key {key!r}", line) from None
    if kind == "int":
        if not value.is_integer():
            raise ConfigError(f"key {key!r} needs an integer, got {t!r}", line)
        return int(value)
    return value


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """Parsed sweep configuration: sweep lists plus scalar settings."""

    values: dict[str, tuple]

    def __post_init__(self) -> None:
        merged = {key: spec.default for key, spec in _KEYS.items()}
        merged.update(self.values)
        object.__setattr__(self, "values", merged)

    def points(self) -> list[dict]:
        """Sweep grid in deterministic order (cross product of lists).

        Each point maps every sweep key to a value and is the identity of
        the row computed for it.  Ad hoc points have no base stations, so
        they carry ``mu = f = None`` and run once, not once per ``mu`` or
        ``f`` value; a repeated point keeps only its first place.  Ad hoc
        points at ``beta >= 1`` are left out: caches that small cannot
        hold one copy of everything.  Only a sweep that also has
        heterogeneous points may list such a beta.
        """
        seen: set[tuple] = set()
        out = []
        for combo in itertools.product(*(self.values[k] for k in _SWEEP_KEYS)):
            point = dict(zip(_SWEEP_KEYS, combo))
            if point["mode"] is Mode.ADHOC:
                if point["beta"] is not None and point["beta"] >= 1:
                    continue
                point.update(mu=None, f=None)
            key = tuple(point.values())
            if key not in seen:
                seen.add(key)
                out.append(point)
        return out

    def header_lines(self) -> list[str]:
        """Effective settings, defaults included, echoed into CSV headers."""
        lines = []
        for key, spec in _KEYS.items():
            v = self.values[key]
            if key in _SWEEP_KEYS:
                text = ", ".join(_fmt(x) or spec.unset for x in v)
            else:
                text = _fmt(v)
            lines.append(f"# {key} = {text}")
        return lines


def parse_config(path: str, overrides: dict | None = None) -> SweepConfig:
    """Parse a key-value sweep config file.

    Unknown keys, unparsable values, numbers that are not finite, and
    repeated keys raise :class:`ConfigError` carrying the offending line
    number.
    ``overrides`` (already-typed values from the command line) replace
    file values after parsing and are checked the same way, without a
    line number: a key must be known, a scalar key takes one value, and
    a sweep key takes a tuple or one value, stored as a 1-tuple.  A
    ``None`` value keeps the file's value.
    """
    values: dict[str, tuple] = {}
    seen: dict[str, int] = {}
    # utf-8-sig: a byte-order mark some editors write is not part of a key.
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
            key_raw, _, value_raw = text.partition("=")
            key = _lookup(key_raw.strip(), lineno)
            if key in seen:
                raise ConfigError(
                    f"key {key!r} already set on line {seen[key]}", lineno
                )
            seen[key] = lineno
            atoms = tuple(
                _parse_atom(tok, key, lineno) for tok in value_raw.split(",")
            )
            _store(values, key, atoms if len(atoms) > 1 else atoms[0], lineno)
    for name, value in (overrides or {}).items():
        if value is not None:
            seen.pop(_store(values, name, value, None), None)  # no line holds it
    cfg = SweepConfig(values=values)
    _validate_config(cfg, seen)
    return cfg


def _lookup(name, line: int | None) -> str:
    """The config key ``name`` names, whatever its case."""
    key = _CANON.get(str(name).lower())
    if key is None:
        raise ConfigError(f"unknown config key {name!r}", line)
    return key


def _store(values: dict, name, value, line: int | None) -> str:
    """Check a value of key ``name``, store it in ``values`` and return the key.

    ``value`` is one value, or a tuple of them: a scalar key takes one, and
    one value for a sweep key is stored as a 1-tuple.
    """
    key = _lookup(name, line)
    spec = _KEYS[key]
    if key in _SCALAR_KEYS:
        if isinstance(value, tuple):
            raise ConfigError(f"key {key!r} takes a single value", line)
    elif not isinstance(value, tuple):
        value = (value,)
    elif not value:
        raise ConfigError(f"key {key!r} needs at least one value", line)
    for v in value if isinstance(value, tuple) else (value,):
        if spec.kind == "mode":
            if not isinstance(v, Mode):
                raise ConfigError("mode must be 'adhoc' or 'heterogeneous'", line)
        elif spec.kind == "int":
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"key {key!r} needs an integer", line)
            if spec.least is not None and v < spec.least:
                raise ConfigError(
                    f"key {key!r} needs an integer >= {spec.least}, got {v}", line
                )
        elif spec.kind == "bool":
            if not isinstance(v, bool):
                raise ConfigError(f"key {key!r} needs true or false", line)
        elif isinstance(v, bool) or (
            v is not None and not isinstance(v, (int, float))
        ):
            raise ConfigError(f"key {key!r} needs a number", line)
        elif isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"key {key!r} needs a finite number, got {v}", line)
        elif spec.kind == "real" and v is None:
            raise ConfigError(f"key {key!r} needs a number, got none", line)
        elif spec.kind == "positive" and not (v is not None and v > 0):
            raise ConfigError(f"key {key!r} needs a positive number, got {v}", line)
    values[key] = value
    return key


def _validate_config(cfg: SweepConfig, seen: dict[str, int]) -> None:
    v = cfg.values
    het = Mode.HETEROGENEOUS in v["mode"]
    has_mu = any(x is not None for x in v["mu"])
    has_f = any(x is not None for x in v["f"])
    if het and has_mu and has_f:
        raise ConfigError(
            "set either 'mu' or 'f' for heterogeneous mode, not both",
            seen.get("f"),
        )
    if het and not (has_mu or has_f):
        raise ConfigError(
            "heterogeneous mode needs 'mu' or 'f'", seen.get("mode")
        )
    too_big = [b for b in v["beta"] if b is not None and b >= 1]
    if Mode.ADHOC in v["mode"] and too_big:
        why = (
            "beta must be < 1 in adhoc mode (caches must be able to hold "
            "one copy of everything)"
        )
        if not het:
            raise ConfigError(why, seen.get("beta"))
        where = f"line {seen['beta']}: " if "beta" in seen else ""
        print(
            f"note: {where}adhoc points at beta = "
            f"{', '.join(_fmt(b) for b in too_big)} left out: {why}",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# sweep rows
# ---------------------------------------------------------------------------


class RegressionResult(NamedTuple):
    slope: float
    intercept: float
    stderr: float
    r_squared: float


@dataclasses.dataclass(frozen=True)
class RegressionSummary:
    """One slope fit; the field order is the regressions CSV's column order."""

    curve: str
    metric: str
    points: int
    slope: float
    intercept: float
    stderr: float
    r_squared: float


@dataclasses.dataclass(frozen=True, kw_only=True)
class SweepRow:
    """One sweep grid point with everything computed for it.

    The fields after ``index`` are the sweep CSV's columns, in order, so a
    new column is one new field.  The point's keys come first.  Result
    fields default to ``None``, which a row keeps where a value is
    unavailable: theory orders when no closed form covers the point,
    simulation fields when the point was not simulated, every result
    when the point is infeasible.
    """

    index: int
    mode: Mode
    n: int
    alpha: float
    beta: float
    K: float
    delta: float
    mu: float | None
    f: float | None
    cell_area: float | None
    M: int
    status: str  # "ok" | "infeasible"
    m1: int | None = None
    m2: int | None = None
    optimizer_delay: float | None = None
    predicted_delay: float | None = None
    predicted_throughput: float | None = None
    predicted_m1: float | None = None
    predicted_m2: float | None = None
    sim_delay_mean: float | None = None
    sim_delay_stderr: float | None = None
    sim_throughput_mean: float | None = None
    sim_throughput_stderr: float | None = None
    sim_mean_hops: float | None = None
    condition1_rate: float | None = None
    condition2_rate: float | None = None
    fallback_rate: float | None = None
    trials: int
    seeds: tuple[int, ...]

    def point(self) -> dict:
        """The sweep point this row was computed for."""
        return {k: getattr(self, k) for k in _SWEEP_KEYS}

    def curve_key(self) -> tuple:
        """Identity of the curve this row belongs to (its point but n)."""
        return tuple(getattr(self, k) for k in _SWEEP_KEYS if k != "n")


_CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow) if f.name != "index")
_REGRESSION_COLUMNS = tuple(f.name for f in dataclasses.fields(RegressionSummary))


@dataclasses.dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    regressions: tuple[RegressionSummary, ...]
    csv_path: str | None
    regression_csv_path: str | None
    header_lines: tuple[str, ...]


def _network_config(point: dict, values: dict) -> NetworkConfig:
    scalars = ("W", "trials", "seed", "concentration_factor")
    return NetworkConfig(**point, **{k: values[k] for k in scalars})


def _describe(point: dict) -> str:
    """``key=value`` text of a sweep point's set keys, in sweep-key order."""
    return " ".join(f"{k}={_fmt(v)}" for k, v in point.items() if v is not None)


def _point_problem(index: int, point: dict, values: dict):
    """Network config and allocation problem of one sweep point.

    Values the model rejects raise :class:`ConfigError` naming the point;
    a ``ValueError`` raised later in the pipeline is a bug and propagates.
    """
    try:
        cfg = _network_config(point, values)
        return cfg, cfg.problem()
    except ValueError as exc:
        raise ConfigError(f"sweep point {index} ({_describe(point)}): {exc}") from exc


def _predictions(cfg: NetworkConfig) -> dict:
    """Closed-form order columns of a config point; empty where not covered."""
    if cfg.mode is Mode.HETEROGENEOUS and cfg.mu is None:
        return {}  # orders are stated for f = n^mu
    try:
        reg = ScalingRegime(
            alpha=cfg.alpha,
            beta=cfg.beta,
            K=cfg.K,
            mu=cfg.mu,
            cell_area=(lambda _n, _a=cfg.cell_area: _a) if cfg.cell_area else None,
        )
        delay = predicted_delay_order(reg, cfg.n)
        throughput = predicted_throughput_order(reg, cfg.n)
        pm1, pm2 = m1_m2_orders(reg, cfg.n)
    except (UnsupportedRegimeError, ValueError):
        return {}
    return dict(
        predicted_delay=delay,
        predicted_throughput=throughput,
        predicted_m1=pm1,
        predicted_m2=pm2,
    )


def _row_seeds(base_seed: int, index: int, trials: int) -> tuple[int, ...]:
    state = np.random.SeedSequence([base_seed, index]).generate_state(
        trials, dtype=np.uint64
    )
    return tuple(int(s) for s in state)


def _compute_row(
    index: int, point: dict, values: dict, do_sim: bool, max_sim_n: int
) -> SweepRow:
    cfg, prob = _point_problem(index, point, values)
    seeds = _row_seeds(values["seed"], index, values["trials"])
    row = dict(point, index=index, M=cfg.M, trials=values["trials"], seeds=seeds)
    try:
        alloc = solve(prob)
    except InfeasibleError:
        return SweepRow(status="infeasible", **row)

    row.update(
        _predictions(cfg),
        m1=alloc.m1,
        m2=alloc.m2,
        optimizer_delay=optimized_delay(alloc, prob),
    )
    if do_sim and cfg.n <= max_sim_n:
        stats = sim.run_trials(cfg, round_to_integers(alloc, prob), seeds=seeds)
        row.update(
            sim_delay_mean=stats.realized_delay.mean,
            sim_delay_stderr=stats.realized_delay.stderr,
            sim_throughput_mean=stats.realized_throughput.mean,
            sim_throughput_stderr=stats.realized_throughput.stderr,
            sim_mean_hops=stats.mean_hops.mean,
            condition1_rate=stats.condition1_rate,
            condition2_rate=stats.condition2_rate,
            fallback_rate=stats.fallback_rate,
        )
    return SweepRow(status="ok", **row)


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------


def slope_regression(rows, x: str = "n", y: str = "optimizer_delay") -> RegressionResult:
    """Ordinary least squares of ln(y) on ln(x) over sweep rows.

    ``rows`` may hold :class:`SweepRow` instances or plain ``(x, y)``
    pairs.  Points with missing or nonpositive values are excluded with a
    warning.  Requires >= 4 usable points.
    """
    xs, ys = [], []
    dropped = 0
    for row in rows:
        if isinstance(row, SweepRow):
            row = getattr(row, x), getattr(row, y)
        xv, yv = row
        if xv is None or yv is None or xv <= 0 or yv <= 0:
            dropped += 1
            continue
        xs.append(math.log(float(xv)))
        ys.append(math.log(float(yv)))
    if dropped:
        warnings.warn(
            f"slope_regression: excluded {dropped} rows with missing or "
            f"nonpositive {y!r}",
            stacklevel=2,
        )
    if len(xs) < 4:
        raise ValueError(f"need >= 4 usable points for a regression, got {len(xs)}")

    lx = np.asarray(xs)
    ly = np.asarray(ys)
    npts = len(lx)
    xbar = lx.mean()
    ybar = ly.mean()
    sxx = float(((lx - xbar) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("regression needs at least two distinct x values")
    slope = float(((lx - xbar) * (ly - ybar)).sum() / sxx)
    intercept = float(ybar - slope * xbar)
    resid = ly - (intercept + slope * lx)
    ssr = float((resid**2).sum())
    sst = float(((ly - ybar) ** 2).sum())
    stderr = math.sqrt(ssr / (npts - 2) / sxx) if npts > 2 else float("inf")
    r_squared = 1.0 if sst == 0.0 and ssr <= 1e-30 else 1.0 - ssr / sst if sst else 0.0
    return RegressionResult(
        slope=slope, intercept=intercept, stderr=stderr, r_squared=r_squared
    )


def _curve_label(key: tuple) -> str:
    """The mode, alpha and beta of a curve, then each other sweep key that
    is off its default; ``cell_area`` is written ``a``."""
    point = dict(zip((k for k in _SWEEP_KEYS if k != "n"), key))
    parts = [point.pop("mode").value]
    for name, value in point.items():
        if name in ("alpha", "beta") or value != _KEYS[name].default[0]:
            parts.append(f"{'a' if name == 'cell_area' else name}={_fmt(value)}")
    return " ".join(parts)


def _regressions(rows: Sequence[SweepRow]) -> tuple[RegressionSummary, ...]:
    groups: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        groups.setdefault(row.curve_key(), []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
        grp = sorted(groups[key], key=lambda r: r.n)
        for metric in ("optimizer_delay", "sim_delay_mean", "sim_throughput_mean"):
            usable = [
                r
                for r in grp
                if getattr(r, metric) is not None and getattr(r, metric) > 0
            ]
            if len({r.n for r in usable}) < 4:
                continue
            res = slope_regression(usable, "n", metric)
            out.append(
                RegressionSummary(
                    curve=_curve_label(key),
                    metric=metric,
                    points=len(usable),
                    **res._asdict(),
                )
            )
    return tuple(out)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, Mode):
        return v.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ";".join(_fmt(x) for x in v)
    return str(v)


def _write_csv(
    path: str, columns: Sequence[str], records: Sequence, header_lines: Sequence[str]
) -> None:
    """Schema line, settings lines, column names, then one line per record."""
    lines = [CSV_SCHEMA_HEADER, *header_lines, ",".join(columns)]
    lines += [",".join(_fmt(getattr(r, col)) for col in columns) for r in records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------


def run_sweep(
    config_path: str,
    *,
    out_dir: str | None = None,
    sim_enabled: bool | None = None,
    trials: int | None = None,
    seed: int | None = None,
    max_sim_n: int | None = None,
    workers: int | None = None,
) -> SweepResult:
    """Run the sweep described by a config file; write CSV outputs.

    Keyword arguments override the corresponding file settings.  Points
    run one after another in the calling thread and rows are written in
    config order, so the files are byte-identical for identical config
    plus seeds.  ``workers`` is accepted and ignored: a thread pool of two
    ran the simulated sample sweep at 0.75-1.40x serial speed (median
    1.06), and each fresh pool thread could leave a malloc arena behind,
    so a process running many sweeps grew its peak RSS.
    With ``out_dir=None`` nothing is written and the result is returned
    only in memory.
    """
    overrides = {
        "sim": sim_enabled,
        "trials": trials,
        "seed": seed,
        "max_sim_n": max_sim_n,
    }
    cfg = parse_config(config_path, overrides)
    values = cfg.values
    points = cfg.points()
    do_sim = bool(values["sim"])
    cap = int(values["max_sim_n"])

    rows = tuple(
        _compute_row(i, pt, values, do_sim, cap) for i, pt in enumerate(points)
    )

    regs = _regressions(rows)
    header = tuple(cfg.header_lines())

    csv_path = reg_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, os.path.splitext(os.path.basename(config_path))[0])
        csv_path, reg_path = f"{stem}_sweep.csv", f"{stem}_regressions.csv"
        _write_csv(csv_path, _CSV_COLUMNS, rows, header)
        # curve labels hold spaces: quote them
        quoted = [dataclasses.replace(r, curve=f'"{r.curve}"') for r in regs]
        _write_csv(reg_path, _REGRESSION_COLUMNS, quoted, header)

    return SweepResult(
        rows=rows,
        regressions=regs,
        csv_path=csv_path,
        regression_csv_path=reg_path,
        header_lines=header,
    )


# ---------------------------------------------------------------------------
# invariant self-checks (the `check` subcommand)
# ---------------------------------------------------------------------------


def _self_checks() -> list[tuple[str, bool, str]]:
    """Fast invariant suite: (name, passed, detail) triples."""
    from .alloc import AllocationProblem, kkt_residual
    from .geometry import CellGrid, double_factorial_ratio_bounds
    from .popularity import zipf
    from .sched import audit_schedule, build_schedule

    checks: list[tuple[str, bool, str]] = []

    p = zipf(500, 1.2).p
    checks.append(
        (
            "popularity normalized and non-increasing",
            bool(abs(p.sum() - 1.0) <= 1e-12 and np.all(np.diff(p) <= 0)),
            f"sum={float(p.sum())!r}",
        )
    )

    ok = True
    worst = 0.0
    for n1, n2 in [(5, 3), (21, 9), (201, 35), (2001, 1999)]:
        lo, mid, hi = double_factorial_ratio_bounds(n1, n2)
        ok &= lo - 1e-12 <= mid <= hi + 1e-12
        worst = max(worst, max(lo - mid, mid - hi))
    checks.append(
        ("nearest-distance sandwich bounds", bool(ok), f"slack={worst:.2e}")
    )

    res = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(2, 20))
        pop = zipf(M, float(rng.uniform(0.2, 2.5)))
        n = int(rng.integers(max(M, 4), 200))
        prob = AllocationProblem.ad_hoc(pop, n=n, K=1.0, a=1.0 / 16)
        try:
            res.append(kkt_residual(solve(prob), prob))
        except InfeasibleError:
            continue
    checks.append(
        (
            "optimizer satisfies stationarity certificate",
            bool(res and max(res) <= 1e-8),
            f"max residual={max(res):.2e}" if res else "no feasible instance",
        )
    )

    violations = audit_schedule(build_schedule(CellGrid(12), 1.0))
    checks.append(
        (
            "schedule interference audit",
            violations == 0,
            f"violations={violations}",
        )
    )

    cfg = NetworkConfig(n=2000, alpha=0.8, beta=0.9, trials=2, seed=1)
    prob = cfg.problem()
    allocation = round_to_integers(solve(prob), prob)
    stats = sim.run_trials(cfg, allocation)
    ident = all(
        int(m.lines_per_cell.sum()) == int(m.hops_total)
        for m in stats.measurements
    )
    checks.append(
        (
            "simulation line-count bookkeeping identity",
            bool(ident),
            f"trials={stats.trials}",
        )
    )

    tradeoff = [
        m.realized_delay * m.realized_throughput for m in stats.measurements
    ]
    checks.append(
        (
            "delay*throughput finite and positive",
            bool(all(v > 0 and math.isfinite(v) for v in tradeoff)),
            f"values={['%.3g' % v for v in tradeoff]}",
        )
    )

    name = "kernel backends bit-identical"
    active = f"backend={_kernels.BACKEND_NAME}"
    try:
        from ._kernels import _fast, _ref
    except ImportError as exc:
        # a kernel that does not build is a failure, not a skipped check
        checks.append((name, False, f"{active}; compiled backend unavailable: {exc}"))
    else:
        if _kernels.BACKEND_REASON:
            active += f": {_kernels.BACKEND_REASON}"
        # 20 and 95 base stations, in one bucket and on a grid of side 9.
        # The other instances hold at most 40 copies of a content; n = 910
        # is the smallest ad hoc one whose requests reach a content with
        # more, which is searched on a grid above one bucket.
        het = [
            NetworkConfig(
                n=2000, alpha=0.8, beta=0.9, mode=Mode.HETEROGENEOUS, mu=mu, seed=1
            )
            for mu in (0.4, 0.6)
        ]
        ring = NetworkConfig(n=910, alpha=1.2, beta=0.9, seed=1)
        points = [(cfg, allocation)]
        for point in (*het, ring):
            point_prob = point.problem()
            points.append((point, round_to_integers(solve(point_prob), point_prob)))
        same = True
        for point, alloc in points:
            inst = sim.build_instance(point, alloc, seed=3)
            req = sim.draw_requests(inst, point.popularity(), seed=4)
            held = int(np.diff(inst._h_start)[req].max())  # the ring one is last
            args = sim._trace_args(inst, req)
            fast_out, ref_out = _fast.trace_batch(*args), _ref.trace_batch(*args)
            same &= all(np.array_equal(a, b) for a, b in zip(fast_out, ref_out))
        few, many = (point.base_station_count for point in het)
        traced = (
            f"ad hoc, {few}-station and {many}-station instances; "
            f"holder ring search on n={ring.n} ad hoc, up to {held} holders"
        )
        checks.append((name, bool(same), f"{active}; {traced}"))

    return checks


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccn-scale",
        description="Cache-allocation optimizer and network simulator driver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p_sweep.add_argument("config", help="key-value sweep config file")
    p_sweep.add_argument("--out", default=".", help="output directory (default: .)")
    p_sweep.add_argument(
        "--sim", action="store_true", default=None, help="enable Monte-Carlo trials"
    )
    p_sweep.add_argument("--trials", type=int, default=None, help="trials per point")
    p_sweep.add_argument("--seed", type=int, default=None, help="master seed")
    p_sweep.add_argument(
        "--max-sim-n",
        type=int,
        default=None,
        help="skip simulation for points with more nodes than this",
    )

    p_alloc = sub.add_parser(
        "alloc", help="print the optimal allocation for the first sweep point"
    )
    p_alloc.add_argument("config", help="key-value sweep config file")

    sub.add_parser("check", help="run the built-in invariant suite")
    return parser


def _cmd_sweep(args) -> int:
    result = run_sweep(
        args.config,
        out_dir=args.out,
        sim_enabled=args.sim,
        trials=args.trials,
        seed=args.seed,
        max_sim_n=args.max_sim_n,
    )
    ok_rows = sum(1 for r in result.rows if r.status == "ok")
    for row in result.rows:
        if row.status != "ok":
            where = _describe(row.point())
            print(f"row {row.index}: {row.status} ({where})", file=sys.stderr)
    print(f"wrote {result.csv_path} ({ok_rows}/{len(result.rows)} rows ok)")
    print(f"wrote {result.regression_csv_path} ({len(result.regressions)} regressions)")
    for reg in result.regressions:
        print(
            f"  {reg.metric:<22} {reg.curve:<40} slope={reg.slope:+.4f} "
            f"(stderr {reg.stderr:.4f}, R^2 {reg.r_squared:.4f}, {reg.points} pts)"
        )
    return 0 if ok_rows else 3


def _cmd_alloc(args) -> int:
    cfg_file = parse_config(args.config)
    cfg, prob = _point_problem(0, cfg_file.points()[0], cfg_file.values)
    alloc = solve(prob)  # InfeasibleError handled by main()
    allocation = round_to_integers(alloc, prob)
    print(
        f"mode={cfg.mode.value} n={cfg.n} M={cfg.M} alpha={cfg.alpha} "
        f"beta={cfg.beta} K={_fmt(cfg.K)} a={_fmt(cfg.a)} f={_fmt(cfg.f_count)}"
    )
    print(
        f"m1={alloc.m1} m2={alloc.m2} objective={_fmt(alloc.objective)} "
        f"expected_delay={_fmt(optimized_delay(alloc, prob))}"
    )
    print("m,p_m,X_m,X_m_rounded")
    pop = cfg.popularity()
    for m in range(cfg.M):
        print(f"{m + 1},{_fmt(float(pop.p[m]))},{_fmt(float(alloc.X[m]))},{allocation[m]}")
    return 0


def _cmd_check() -> int:
    checks = _self_checks()
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, passed, detail in checks:
        mark = "PASS" if passed else "FAIL"
        failed += not passed
        suffix = f"  ({detail})" if detail else ""
        print(f"{mark}  {name:<{width}}{suffix}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "alloc":
            return _cmd_alloc(args)
        return _cmd_check()
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # reader closed the pipe (e.g. `... | head`); silence the
        # interpreter's flush-on-exit complaint and exit like SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
