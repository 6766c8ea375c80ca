"""Sweep driver: config parsing, CSV determinism, regressions, exit codes."""

from __future__ import annotations

import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ccnscale import cli
from ccnscale.cli import (
    ConfigError,
    Mode,
    NetworkConfig,
    SweepRow,
    parse_config,
    run_sweep,
    slope_regression,
)
from ccnscale.errors import SolverError


_ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC = """\
# a comment line
mode = adhoc
n = 1000, 3162, 10000, 31623
alpha = 0.8
beta = 0.9          # inline comment
seed = 7
trials = 3
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


class TestParseConfig:
    def test_basic_values_and_defaults(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "a.conf", BASIC))
        v = cfg.values
        assert v["mode"] == (Mode.ADHOC,)
        assert v["n"] == (1000, 3162, 10000, 31623)
        assert v["alpha"] == (0.8,)
        assert v["beta"] == (0.9,)
        assert v["seed"] == 7
        assert v["trials"] == 3
        # untouched keys fall back to documented defaults
        assert v["K"] == (1.0,)
        assert v["W"] == 1.0
        assert v["sim"] is False
        assert v["max_sim_n"] == 100_000

    def test_points_cross_product_deterministic_order(self, tmp_path):
        cfg = parse_config(
            _write(
                tmp_path,
                "b.conf",
                "mode = adhoc\nn = 10, 20\nalpha = 0.5, 1.5\nbeta = 0.9\n",
            )
        )
        pts = cfg.points()
        assert [(p["n"], p["alpha"]) for p in pts] == [
            (10, 0.5),
            (10, 1.5),
            (20, 0.5),
            (20, 1.5),
        ]

    def test_unknown_key_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "c.conf", "mode = adhoc\n\nwídth = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_bad_value_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "d.conf", "n = ten\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.line == 1

    def test_non_integer_n_rejected(self, tmp_path):
        path = _write(tmp_path, "e.conf", "n = 10.5\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_integer_scientific_notation_accepted(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "f.conf", "n = 1e3, 1e4\n"))
        assert cfg.values["n"] == (1000, 10000)

    def test_duplicate_key_rejected(self, tmp_path):
        path = _write(tmp_path, "g.conf", "n = 10\nn = 20\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.line == 2

    def test_missing_equals_rejected(self, tmp_path):
        path = _write(tmp_path, "h.conf", "just some words\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.line == 1

    def test_scalar_key_rejects_list(self, tmp_path):
        path = _write(tmp_path, "i.conf", "seed = 1, 2\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_heterogeneous_requires_mu_or_f(self, tmp_path):
        path = _write(tmp_path, "j.conf", "mode = heterogeneous\nbeta = 0.9\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_heterogeneous_rejects_both_mu_and_f(self, tmp_path):
        path = _write(
            tmp_path,
            "k.conf",
            "mode = heterogeneous\nbeta = 0.9\nmu = 0.4\nf = 3\n",
        )
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.line == 4

    def test_adhoc_beta_above_one_rejected_at_parse(self, tmp_path):
        path = _write(tmp_path, "l.conf", "mode = adhoc\nbeta = 1.2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.line == 2

    def test_mixed_sweep_leaves_out_adhoc_points_at_beta_above_one(
        self, tmp_path, capsys
    ):
        text = "mode = adhoc, heterogeneous\nn = 400\nbeta = 0.9, 1.2\nmu = 0.4\n"
        path = _write(tmp_path, "mixed.conf", text)
        cfg = parse_config(path)
        assert capsys.readouterr().err == (
            "note: line 3: adhoc points at beta = 1.2 left out: beta must be < 1 "
            "in adhoc mode (caches must be able to hold one copy of everything)\n"
        )
        assert [(p["mode"], p["beta"]) for p in cfg.points()] == [
            (Mode.ADHOC, 0.9),
            (Mode.HETEROGENEOUS, 0.9),
            (Mode.HETEROGENEOUS, 1.2),
        ]
        out_dir = str(tmp_path / "out")
        assert cli.main(["sweep", path, "--out", out_dir]) == 0
        assert "adhoc points at beta = 1.2 left out" in capsys.readouterr().err
        with open(os.path.join(out_dir, "mixed_sweep.csv"), encoding="utf-8") as fh:
            rows = [ln for ln in fh if not ln.startswith("#")][1:]
        assert [r.split(",")[:4] for r in rows] == [
            ["adhoc", "400", "0.8", "0.9"],
            ["heterogeneous", "400", "0.8", "0.9"],
            ["heterogeneous", "400", "0.8", "1.2"],
        ]

    def test_beta_from_an_override_gets_a_note_without_a_line(self, tmp_path, capsys):
        text = "mode = adhoc, heterogeneous\nn = 1000\nalpha = 0.8\nmu = 0.4\n"
        path = _write(tmp_path, "override.conf", text)
        cfg = parse_config(path, {"beta": (0.9, 1.2)})
        assert capsys.readouterr().err == (
            "note: adhoc points at beta = 1.2 left out: beta must be < 1 "
            "in adhoc mode (caches must be able to hold one copy of everything)\n"
        )
        assert [(p["mode"], p["beta"]) for p in cfg.points()] == [
            (Mode.ADHOC, 0.9),
            (Mode.HETEROGENEOUS, 0.9),
            (Mode.HETEROGENEOUS, 1.2),
        ]

    def test_override_replaces_the_line_of_a_file_value(self, tmp_path, capsys):
        text = "mode = adhoc, heterogeneous\nbeta = 0.5\nmu = 0.4\n"
        path = _write(tmp_path, "m.conf", text)
        parse_config(path, {"beta": (0.9, 1.2)})
        assert capsys.readouterr().err.startswith("note: adhoc points at beta = 1.2")

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("W = -1", "key 'W' needs a positive number, got -1"),
            ("W = none", "key 'W' needs a positive number"),
            ("trials = 0", "key 'trials' needs an integer >= 1, got 0"),
            (
                "concentration_factor = 0",
                "key 'concentration_factor' needs a positive number, got 0",
            ),
            ("max_sim_n = -5", "key 'max_sim_n' needs an integer >= 1, got -5"),
        ],
    )
    def test_bad_scalar_setting_reports_its_line(self, tmp_path, setting, message):
        path = _write(tmp_path, "scalar.conf", f"mode = adhoc\nn = 400\n{setting}\n")
        with pytest.raises(ConfigError, match=message) as err:
            parse_config(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "key",
        [k for k in (*cli._SWEEP_KEYS, *cli._SCALAR_KEYS) if k not in ("mode", "sim")],
    )
    def test_non_finite_number_reports_its_line(self, tmp_path, key, value):
        # A sweep key's list holds it as its second value.
        if key in cli._SWEEP_KEYS:
            value = f"{400 if key == 'n' else 0.5}, {value}"
        text = f"mode = adhoc\nsim = true\n{key} = {value}\n"
        path = _write(tmp_path, "inf.conf", text)
        with pytest.raises(ConfigError, match=repr(key)) as err:
            parse_config(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("key", ["trials", "seed", "max_sim_n"])
    def test_non_finite_override_rejected(self, tmp_path, key):
        path = _write(tmp_path, "ok.conf", "mode = adhoc\nn = 400\n")
        for value in (math.inf, math.nan):
            with pytest.raises(ConfigError, match=key) as err:
                parse_config(path, {key: value})
            assert err.value.line is None

    def test_config_with_a_byte_order_mark_parses(self, tmp_path):
        path = tmp_path / "bom.conf"
        path.write_bytes("mode = heterogeneous\nmu = 0.4\n".encode("utf-8-sig"))
        cfg = parse_config(str(path))
        assert cfg.values["mode"] == (Mode.HETEROGENEOUS,)
        assert cfg.values["mu"] == (0.4,)

    def test_bad_scalar_override_rejected(self, tmp_path):
        path = _write(tmp_path, "ok.conf", "mode = adhoc\nn = 400\n")
        with pytest.raises(ConfigError, match="max_sim_n") as err:
            parse_config(path, {"max_sim_n": -5})
        assert err.value.line is None
        with pytest.raises(ConfigError, match="trials"):
            parse_config(path, {"trials": 0})

    def test_overrides_replace_file_values(self, tmp_path):
        path = _write(tmp_path, "m.conf", BASIC)
        cfg = parse_config(path, {"seed": 99, "sim": True, "trials": None})
        assert cfg.values["seed"] == 99
        assert cfg.values["sim"] is True
        assert cfg.values["trials"] == 3  # None override = keep file value

    def test_unknown_override_key_rejected(self, tmp_path):
        path = _write(tmp_path, "m.conf", BASIC)
        with pytest.raises(ConfigError, match="'bogus'") as err:
            parse_config(path, {"bogus": 3})
        assert err.value.line is None

    def test_scalar_override_of_a_sweep_key_is_one_value(self, tmp_path):
        path = _write(tmp_path, "m.conf", BASIC)
        cfg = parse_config(path, {"alpha": 0.5, "n": (400, 900)})
        one_line = parse_config(
            _write(tmp_path, "one.conf", BASIC.replace("alpha = 0.8", "alpha = 0.5"))
        )
        assert cfg.values["alpha"] == one_line.values["alpha"] == (0.5,)
        assert cfg.values["n"] == (400, 900)
        assert [p["alpha"] for p in cfg.points()] == [0.5, 0.5]
        with pytest.raises(ConfigError, match="'alpha'"):
            parse_config(path, {"alpha": ()})

    def test_tuple_override_of_a_scalar_key_rejected(self, tmp_path):
        path = _write(tmp_path, "m.conf", BASIC)
        with pytest.raises(ConfigError, match="'trials' takes a single value") as err:
            parse_config(path, {"trials": (2, 3)})
        assert err.value.line is None

    def test_negative_seed_rejected_with_its_line(self, tmp_path):
        path = _write(tmp_path, "neg.conf", "mode = adhoc\nseed = -1\n")
        with pytest.raises(ConfigError, match="seed") as err:
            parse_config(path)
        assert err.value.line == 2
        with pytest.raises(ConfigError, match="seed"):
            parse_config(_write(tmp_path, "pos.conf", "seed = 3\n"), {"seed": -1})

    def test_points_drop_repeats_in_first_seen_order(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "rep.conf", "n = 30, 10, 30, 10\n"))
        assert [p["n"] for p in cfg.points()] == [30, 10]

    def test_header_lines_cover_every_key(self, tmp_path):
        cfg = parse_config(_write(tmp_path, "n.conf", BASIC))
        lines = cfg.header_lines()
        keys = {ln.split("=")[0].strip("# ").strip() for ln in lines}
        assert keys == set(cli._SWEEP_KEYS) | set(cli._SCALAR_KEYS)


class TestKeyTable:
    """What the one table of config keys, ``cli._KEYS``, must agree with."""

    @pytest.mark.parametrize(
        "conf", sorted((_ROOT / "configs").glob("*.conf")), ids=lambda p: p.name
    )
    def test_header_lines_parse_back(self, tmp_path, conf):
        cfg = parse_config(str(conf))
        text = "".join(line.removeprefix("# ") + "\n" for line in cfg.header_lines())
        again = parse_config(_write(tmp_path, conf.name, text))
        assert again.values == cfg.values
        assert again.points() == cfg.points()

    def test_sweep_row_point_fields_are_the_sweep_keys(self):
        # The CSV columns come from SweepRow's fields, the points from the table.
        names = tuple(f.name for f in dataclasses.fields(SweepRow))
        assert names[1 : 1 + len(cli._SWEEP_KEYS)] == cli._SWEEP_KEYS

    def test_curve_labels_name_keys_off_their_defaults(self, tmp_path):
        # The sample configs leave K, delta, f and cell_area at their defaults.
        text = (
            "mode = adhoc, heterogeneous\nn = 1000, 2000, 4000, 8000\n"
            "alpha = 0.8\nbeta = 0.5\nK = 2, 1\ndelta = 1.5\nf = 3\n"
            "cell_area = 0.01\n"
        )
        result = run_sweep(_write(tmp_path, "labels.conf", text), out_dir=None)
        assert sorted({reg.curve for reg in result.regressions}) == [
            "adhoc alpha=0.8 beta=0.5 K=2 delta=1.5 a=0.01",
            "adhoc alpha=0.8 beta=0.5 delta=1.5 a=0.01",
            "heterogeneous alpha=0.8 beta=0.5 K=2 delta=1.5 f=3 a=0.01",
            "heterogeneous alpha=0.8 beta=0.5 delta=1.5 f=3 a=0.01",
        ]

    def test_readme_key_table_lists_every_key(self):
        readme = (_ROOT / "README.md").read_text(encoding="utf-8")
        listed = re.findall(r"^\| `(\w+)` \|", readme, flags=re.M)
        assert listed == list(cli._KEYS)


# ---------------------------------------------------------------------------
# slope regression
# ---------------------------------------------------------------------------


class TestSlopeRegression:
    def test_exact_power_law(self):
        ns = [10**k for k in range(3, 8)]
        rows = [(n, float(n) ** 0.45) for n in ns]
        res = slope_regression(rows, "n", "delay")
        assert math.isclose(res.slope, 0.45, abs_tol=1e-12)
        assert math.isclose(res.r_squared, 1.0, abs_tol=1e-12)
        assert res.stderr < 1e-12

    def test_intercept_is_a_python_float(self):
        # The regressions CSV writes it with repr: a plain number, not np.float64.
        rows = [(n, 2.0 * float(n) ** -0.5) for n in (10, 100, 1000, 10_000)]
        res = slope_regression(rows, "n", "y")
        assert type(res.intercept) is float
        assert math.isclose(res.intercept, math.log(2.0), abs_tol=1e-12)

    def test_noisy_power_law_and_stderr(self):
        rng = np.random.default_rng(5)
        ns = np.geomspace(1e3, 1e6, 12)
        rows = [
            (float(n), float(n**0.3 * math.exp(rng.normal(0, 0.05)))) for n in ns
        ]
        res = slope_regression(rows, "n", "y")
        assert abs(res.slope - 0.3) < 0.05
        assert 0.0 < res.stderr < 0.05
        assert res.r_squared > 0.95

    def test_nonpositive_values_excluded_with_warning(self):
        rows = [(10, 1.0), (100, 2.0), (1000, 4.0), (10000, 8.0), (100000, -3.0)]
        with pytest.warns(UserWarning, match="excluded 1"):
            res = slope_regression(rows, "n", "y")
        assert math.isclose(res.slope, math.log(2) / math.log(10), rel_tol=1e-9)

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            slope_regression([(10, 1.0), (100, 2.0), (1000, 3.0)], "n", "y")

    def test_accepts_sweep_rows(self, tmp_path):
        result = run_sweep(
            _write(
                tmp_path,
                "reg.conf",
                "mode = adhoc\nn = 1000, 3162, 10000, 31623, 100000\n"
                "alpha = 0.8\nbeta = 0.9\n",
            ),
            out_dir=None,
        )
        res = slope_regression(result.rows, "n", "optimizer_delay")
        assert abs(res.slope - 0.45) < 0.1


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------


class TestRunSweep:
    def test_single_point_theory_only(self, tmp_path):
        result = run_sweep(
            _write(tmp_path, "one.conf", "mode = adhoc\nn = 500\nalpha = 1.2\nbeta = 0.7\n"),
            out_dir=str(tmp_path / "out"),
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.status == "ok"
        assert row.optimizer_delay is not None and row.optimizer_delay >= 1.0
        assert row.predicted_delay is not None
        assert row.sim_delay_mean is None  # no simulation requested
        assert row.m1 is not None and row.m2 is not None
        assert len(row.seeds) == row.trials == 4
        text = open(result.csv_path, encoding="utf-8").read()
        lines = text.splitlines()
        assert lines[0] == cli.CSV_SCHEMA_HEADER
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx].split(",")[0] == "mode"
        assert len(lines) == header_idx + 2  # one data row

    def test_csv_byte_identical_across_runs(self, tmp_path):
        conf = _write(
            tmp_path,
            "det.conf",
            "mode = adhoc\nn = 200, 400\nalpha = 0.8\nbeta = 0.9\n"
            "trials = 2\nseed = 5\nsim = true\n",
        )
        r1 = run_sweep(conf, out_dir=str(tmp_path / "o1"))
        r2 = run_sweep(conf, out_dir=str(tmp_path / "o2"))
        b1 = open(r1.csv_path, "rb").read()
        b2 = open(r2.csv_path, "rb").read()
        assert b1 == b2
        g1 = open(r1.regression_csv_path, "rb").read()
        g2 = open(r2.regression_csv_path, "rb").read()
        assert g1 == g2

    def test_rows_run_in_the_calling_thread(self, tmp_path, monkeypatch):
        threads = []
        compute_row = cli._compute_row

        def recording(*args):
            threads.append(threading.get_ident())
            return compute_row(*args)

        monkeypatch.setattr(cli, "_compute_row", recording)
        conf = "mode = adhoc\nn = 200, 400\nbeta = 0.7\n"
        path = _write(tmp_path, "serial.conf", conf)
        run_sweep(path)
        run_sweep(path, workers=2)  # accepted and ignored
        assert threads == [threading.get_ident()] * 4

    def test_theory_columns_seed_independent(self, tmp_path):
        base = "mode = adhoc\nn = 300, 900\nalpha = 1.0\nbeta = 0.8\nsim = true\ntrials = 2\n"
        r1 = run_sweep(
            _write(tmp_path, "s1.conf", base + "seed = 1\n"), out_dir=None
        )
        r2 = run_sweep(
            _write(tmp_path, "s2.conf", base + "seed = 2\n"), out_dir=None
        )
        for a, b in zip(r1.rows, r2.rows):
            assert a.optimizer_delay == b.optimizer_delay
            assert a.predicted_delay == b.predicted_delay
            assert a.predicted_throughput == b.predicted_throughput
            assert a.m1 == b.m1 and a.m2 == b.m2
            assert a.seeds != b.seeds  # sim seeds do change

    def test_infeasible_point_surfaced_per_row(self, tmp_path):
        # With beta = 0.9, K = 0.5: n = 100 gives M = 63 > budget 50
        # (infeasible), n = 100000 gives M = 31623 <= budget 50000.
        conf = _write(
            tmp_path,
            "inf.conf",
            "mode = adhoc\nn = 100, 100000\nalpha = 0.8\nbeta = 0.9\nK = 0.5\n",
        )
        result = run_sweep(conf, out_dir=str(tmp_path / "o"))
        statuses = {row.n: row.status for row in result.rows}
        assert statuses[100] == "infeasible"
        assert statuses[100000] == "ok"
        bad = next(r for r in result.rows if r.n == 100)
        assert bad.optimizer_delay is None and bad.m1 is None
        # infeasible rows still land in the CSV, with empty numeric cells
        text = open(result.csv_path, encoding="utf-8").read()
        assert ",infeasible," in text

    def test_infeasible_degenerate_point_surfaced(self, tmp_path):
        # cell_area = 1 collapses the box to one holder per content: 63
        # contents do not fit a budget of n*K = 10.
        conf = _write(
            tmp_path,
            "degen.conf",
            "mode = adhoc\nn = 100\nalpha = 0.8\nbeta = 0.9\nK = 0.1\n"
            "cell_area = 1\n",
        )
        (row,) = run_sweep(conf, out_dir=None).rows
        assert row.status == "infeasible"

    def test_infeasible_empty_box_point_surfaced(self, tmp_path):
        # n^0.9 = 501 base stations exceed the cap of one per cell, so the
        # allocation box is empty.
        conf = _write(
            tmp_path,
            "empty.conf",
            "mode = heterogeneous\nn = 1000\nalpha = 0.8\nbeta = 0.9\n"
            "mu = 0.9\n",
        )
        (row,) = run_sweep(conf, out_dir=None).rows
        assert row.status == "infeasible"
        assert row.optimizer_delay is None

    def test_simulation_capped_by_max_sim_n(self, tmp_path):
        conf = _write(
            tmp_path,
            "cap.conf",
            "mode = adhoc\nn = 200, 5000\nalpha = 0.8\nbeta = 0.9\n"
            "sim = true\ntrials = 2\nmax_sim_n = 1000\n",
        )
        result = run_sweep(conf, out_dir=None)
        small = next(r for r in result.rows if r.n == 200)
        big = next(r for r in result.rows if r.n == 5000)
        assert small.sim_delay_mean is not None
        assert big.sim_delay_mean is None  # theory-only beyond the cap
        assert big.optimizer_delay is not None

    def test_heterogeneous_sweep_ignores_mu_for_adhoc_rows(self, tmp_path):
        # Ad hoc points carry no mu or f and run once per n, however many
        # base-station settings the heterogeneous points sweep.
        for name, stations in (("mu", "mu = 0.3, 0.5"), ("f", "f = 5")):
            conf = _write(
                tmp_path,
                f"both_{name}.conf",
                "mode = adhoc, heterogeneous\nn = 1000, 3162, 10000, 31623\n"
                f"alpha = 0.8\nbeta = 0.9\n{stations}\n",
            )
            result = run_sweep(conf, out_dir=None)
            adhoc = [row for row in result.rows if row.mode is Mode.ADHOC]
            assert [row.n for row in adhoc] == [1000, 3162, 10000, 31623]
            assert all(row.mu is None and row.f is None for row in adhoc)
            het = [row for row in result.rows if row.mode is Mode.HETEROGENEOUS]
            assert all(getattr(row, name) is not None for row in het)
            (reg,) = [
                r
                for r in result.regressions
                if r.curve.startswith("adhoc") and r.metric == "optimizer_delay"
            ]
            assert reg.curve == "adhoc alpha=0.8 beta=0.9"
            assert reg.points == 4

    def test_omitted_mode_runs_ad_hoc(self, tmp_path):
        result = run_sweep(_write(tmp_path, "nomode.conf", "n = 400\n"))
        assert [(row.mode, row.status) for row in result.rows] == [(Mode.ADHOC, "ok")]

    def test_explicit_f_gets_no_predictions_but_solves(self, tmp_path):
        conf = _write(
            tmp_path,
            "expf.conf",
            "mode = heterogeneous\nn = 400\nalpha = 0.8\nbeta = 0.9\nf = 5\n",
        )
        result = run_sweep(conf, out_dir=None)
        row = result.rows[0]
        assert row.status == "ok"
        assert row.optimizer_delay is not None
        assert row.predicted_delay is None  # orders stated for f = n^mu only

    def test_delay_curves_ordered_decreasing_in_alpha_at_large_n(self, tmp_path):
        conf = _write(
            tmp_path,
            "fig1.conf",
            "mode = adhoc\nn = 1000, 10000, 100000, 1000000\n"
            "alpha = 0.6, 1.0, 1.2, 1.4, 1.6\nbeta = 0.9\n",
        )
        result = run_sweep(conf, out_dir=None)
        largest = max(r.n for r in result.rows)
        tail = sorted(
            (r for r in result.rows if r.n == largest), key=lambda r: r.alpha
        )
        delays = [r.optimizer_delay for r in tail]
        assert delays == sorted(delays, reverse=True)
        # and growth-rate ordering: regressions per curve strictly decrease
        slopes = [
            next(
                g.slope
                for g in result.regressions
                if g.metric == "optimizer_delay" and f"alpha={a}" in g.curve
            )
            for a in (0.6, 1.0, 1.2, 1.4, 1.6)
        ]
        assert all(s1 > s2 for s1, s2 in zip(slopes, slopes[1:]))

    def test_heterogeneous_dominates_adhoc_below_three_halves(self, tmp_path):
        conf = _write(
            tmp_path,
            "fig34.conf",
            "mode = adhoc, heterogeneous\nn = 10000, 100000, 1000000, 10000000\n"
            "alpha = 0.8, 1.2\nbeta = 0.9\nmu = 0.4\n",
        )
        result = run_sweep(conf, out_dir=None)
        for alpha in (0.8, 1.2):
            for n in (1000000, 10000000):
                by_mode = {
                    r.mode: r.optimizer_delay
                    for r in result.rows
                    if r.n == n and r.alpha == alpha
                }
                assert by_mode[Mode.HETEROGENEOUS] < by_mode[Mode.ADHOC]

    def test_every_row_carries_seeds(self, tmp_path):
        conf = _write(
            tmp_path,
            "seeds.conf",
            "mode = adhoc\nn = 100, 200\nalpha = 0.8\nbeta = 0.9\ntrials = 5\n",
        )
        result = run_sweep(conf, out_dir=None)
        assert all(len(r.seeds) == 5 for r in result.rows)
        assert len({r.seeds for r in result.rows}) == len(result.rows)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def _run_cli(*argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "ccnscale.cli", *argv],
        capture_output=True,
        text=True,
    )


class TestCommandLine:
    def test_sweep_writes_files_and_exits_zero(self, tmp_path):
        conf = _write(
            tmp_path, "ok.conf", "mode = adhoc\nn = 300\nalpha = 0.8\nbeta = 0.9\n"
        )
        out = str(tmp_path / "out")
        proc = _run_cli("sweep", conf, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.join(out, "ok_sweep.csv"))
        assert os.path.exists(os.path.join(out, "ok_regressions.csv"))

    def test_sweep_cli_overrides_apply(self, tmp_path):
        conf = _write(
            tmp_path,
            "ovr.conf",
            "mode = adhoc\nn = 300\nalpha = 0.8\nbeta = 0.9\ntrials = 2\n",
        )
        out = str(tmp_path / "out")
        proc = _run_cli(
            "sweep", conf, "--out", out, "--sim", "--trials", "3", "--seed", "42"
        )
        assert proc.returncode == 0, proc.stderr
        text = open(os.path.join(out, "ovr_sweep.csv"), encoding="utf-8").read()
        assert "# trials = 3" in text
        assert "# seed = 42" in text
        assert "# sim = true" in text
        data = text.splitlines()[-1]
        assert data.count(";") == 2  # three per-trial seeds in the row

    def test_config_error_exit_code_2(self, tmp_path):
        conf = _write(tmp_path, "bad.conf", "mode = adhoc\nnope = 1\n")
        proc = _run_cli("sweep", conf, "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_non_finite_delta_exit_code_2(self, tmp_path, capsys):
        # Without the check, the schedule's reuse distance overflowed.
        text = "mode = adhoc\nn = 400\nsim = true\ndelta = inf\n"
        conf = _write(tmp_path, "d.conf", text)
        assert cli.main(["sweep", conf, "--out", str(tmp_path)]) == 2
        assert "line 4: key 'delta' needs a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha", "beta", "K", "delta"])
    def test_unset_required_number_exit_code_2(self, tmp_path, capsys, key):
        # These keys take a number in every row; mu, f and cell_area may be
        # none.  Without the check, NetworkConfig raised a TypeError.
        conf = _write(tmp_path, "none.conf", f"n = 1000\n{key} = none\nsim = false\n")
        assert cli.main(["sweep", conf, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: line 2: key {key!r} needs a number, got none\n"
        with pytest.raises(ConfigError, match=f"key {key!r} needs a number") as exc:
            parse_config(_write(tmp_path, "ok.conf", "n = 1000\n"), {key: (0.5, None)})
        assert exc.value.line is None

    def test_missing_file_exit_code_2(self, tmp_path):
        proc = _run_cli("sweep", str(tmp_path / "absent.conf"))
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "text, argv, where",
        [("seed = -1\n", (), "line 2: "), ("seed = 1\n", ("--seed", "-1"), "")],
        ids=["file", "option"],
    )
    def test_negative_seed_exit_code_2(self, tmp_path, capsys, text, argv, where):
        conf = _write(tmp_path, "seed.conf", "mode = adhoc\n" + text)
        assert cli.main(["sweep", conf, "--out", str(tmp_path / "o"), *argv]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {where}key 'seed' needs an integer >= 0, got -1\n"

    def test_failed_rows_name_their_whole_point(self, tmp_path, capsys):
        # Two infeasible points that differ only in delta.
        conf = _write(
            tmp_path,
            "delta.conf",
            "mode = adhoc\nn = 20\nalpha = 1.0\nbeta = 0.99\nK = 0.2\n"
            "delta = 1.0, 2.0\n",
        )
        assert cli.main(["sweep", conf, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        point = "mode=adhoc n=20 alpha=1.0 beta=0.99 K=0.2 delta={}"
        assert err == [
            f"row 0: infeasible ({point.format('1.0')})",
            f"row 1: infeasible ({point.format('2.0')})",
        ]

    @pytest.mark.parametrize("command", ["alloc", "sweep"])
    def test_rejected_point_is_a_config_error(self, tmp_path, capsys, command):
        conf = _write(
            tmp_path,
            "f.conf",
            "mode = heterogeneous\nn = 300\nalpha = 0.8\nbeta = 0.9\nf = 0.5\n",
        )
        extra = ["--out", str(tmp_path / "o")] if command == "sweep" else []
        assert cli.main([command, conf, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep point 0 (mode=heterogeneous n=300")
        assert "needs f >= 1, got 0.5" in err

    def test_more_cells_than_nodes_is_a_config_error(self, tmp_path, capsys):
        # 10,000 cells for 300 nodes: the holder cap 1/a exceeds n.
        conf = _write(
            tmp_path,
            "cells.conf",
            "mode = adhoc\nn = 300\nalpha = 2.0\nbeta = 0.3\nK = 5\n"
            "cell_area = 0.0001\nsim = true\n",
        )
        assert cli.main(["sweep", conf, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep point 0 (mode=adhoc n=300")
        assert "cell area must be in [1/n, 1]" in err

    def test_value_error_past_the_config_propagates(self, tmp_path, monkeypatch):
        # Only a point the model rejects is a config error; a ValueError
        # raised while simulating a valid point is a bug and keeps its traceback.
        def broken_run_trials(*args, **kwargs):
            raise ValueError("holder counts must lie in [0, n]")

        monkeypatch.setattr(cli.sim, "run_trials", broken_run_trials)
        conf = _write(
            tmp_path,
            "sim.conf",
            "mode = adhoc\nn = 300\nalpha = 0.8\nbeta = 0.9\nsim = true\n",
        )
        with pytest.raises(ValueError, match="holder counts"):
            cli.main(["sweep", conf, "--out", str(tmp_path / "o")])

    def test_infeasible_alloc_exit_code_3(self, tmp_path):
        conf = _write(
            tmp_path,
            "infeas.conf",
            "mode = adhoc\nn = 20\nalpha = 1.0\nbeta = 0.99\nK = 0.2\n",
        )
        proc = _run_cli("alloc", conf)
        assert proc.returncode == 3
        assert "infeasible" in proc.stderr.lower()

    def test_all_rows_infeasible_sweep_exit_code_3(self, tmp_path):
        conf = _write(
            tmp_path,
            "allinf.conf",
            "mode = adhoc\nn = 20, 30\nalpha = 1.0\nbeta = 0.99\nK = 0.2\n",
        )
        proc = _run_cli("sweep", conf, "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        assert "infeasible" in proc.stderr

    @pytest.mark.parametrize("command", ["alloc", "sweep"])
    def test_failed_kkt_certificate_exit_code_4(
        self, tmp_path, monkeypatch, capsys, command
    ):
        def failing_solve(prob):
            raise SolverError("optimality certificate failed: KKT residual 1e-3")

        monkeypatch.setattr(cli, "solve", failing_solve)
        conf = _write(
            tmp_path, "kkt.conf", "mode = adhoc\nn = 300\nalpha = 0.8\nbeta = 0.9\n"
        )
        extra = ["--out", str(tmp_path / "o")] if command == "sweep" else []
        assert cli.main([command, conf, *extra]) == 4
        err = capsys.readouterr().err
        assert err.startswith("solver error: optimality certificate failed")

    def test_other_arithmetic_error_is_not_a_solver_error(
        self, tmp_path, monkeypatch
    ):
        def broken_solve(prob):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "solve", broken_solve)
        conf = _write(
            tmp_path, "zde.conf", "mode = adhoc\nn = 300\nalpha = 0.8\nbeta = 0.9\n"
        )
        with pytest.raises(ZeroDivisionError):
            cli.main(["alloc", conf])

    def test_alloc_prints_allocation_table(self, tmp_path):
        conf = _write(
            tmp_path,
            "small.conf",
            "mode = adhoc\nn = 50\nalpha = 1.2\nbeta = 0.6\n",
        )
        proc = _run_cli("alloc", conf)
        assert proc.returncode == 0
        assert "m,p_m,X_m,X_m_rounded" in proc.stdout
        # The optimum's value is the delay: one number, printed once.
        fields = dict(kv.split("=") for kv in proc.stdout.splitlines()[1].split())
        assert "objective" in fields and "expected_delay" not in fields
        # table has M = ceil(50^0.6) = 11 content rows
        rows = [ln for ln in proc.stdout.splitlines() if ln and ln[0].isdigit()]
        assert len(rows) == 11

    def test_check_passes(self):
        proc = _run_cli("check")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout
        assert "checks passed" in proc.stdout

    @staticmethod
    def _check_fails_if_compiled_errs(monkeypatch, wrong_for):
        """The backend check passes, and fails once the compiled
        ``trace_batch`` goes wrong on the calls whose arguments
        ``wrong_for`` accepts."""
        _fast = pytest.importorskip("ccnscale._kernels._fast")
        real = _fast.trace_batch

        def wrong(*args):
            hops, loads, status = real(*args)
            if wrong_for(*args):
                hops = hops + 1
            return hops, loads, status

        name = "kernel backends bit-identical"
        (passed, detail), = [c[1:] for c in cli._self_checks() if c[0] == name]
        assert passed and "20-station and 95-station" in detail
        assert "holder ring search on n=910 ad hoc, up to 65 holders" in detail
        monkeypatch.setattr(_fast, "trace_batch", wrong)
        (passed, _), = [c[1:] for c in cli._self_checks() if c[0] == name]
        assert not passed

    def test_check_reports_the_parts_of_each_traced_batch(self, monkeypatch):
        # The backend check runs the compiled kernel in the parts that
        # _fast._parts gives each instance, and says how many.
        _fast = pytest.importorskip("ccnscale._kernels._fast")
        name = "kernel backends bit-identical"
        want = {n: _fast._parts(n) for n in (910, 2000)}
        (passed, detail), = [c[1:] for c in cli._self_checks() if c[0] == name]
        assert passed and f"parts: {want[910]} at n=910, {want[2000]} at n=2000" in detail
        monkeypatch.setattr(_fast, "_parts", lambda n: 3 if n == 2000 else 2)
        (passed, detail), = [c[1:] for c in cli._self_checks() if c[0] == name]
        assert passed and "parts: 2 at n=910, 3 at n=2000" in detail

    def test_check_compares_backends_on_the_station_ring_path(self, monkeypatch):
        # A compiled kernel that goes wrong only with more than
        # RING_MIN_HOLDERS base stations fails the backend check.
        from ccnscale._kernels import _ref

        self._check_fails_if_compiled_errs(
            monkeypatch, lambda *args: len(args[-1]) > _ref.RING_MIN_HOLDERS
        )

    def test_check_compares_backends_on_the_station_linear_path(self, monkeypatch):
        # Likewise with 1 to RING_MIN_HOLDERS base stations.
        from ccnscale._kernels import _ref

        self._check_fails_if_compiled_errs(
            monkeypatch, lambda *args: 0 < len(args[-1]) <= _ref.RING_MIN_HOLDERS
        )

    def test_check_compares_backends_on_the_holder_ring_path(self, monkeypatch):
        # Likewise when a request asks for a content with more than
        # RING_MIN_HOLDERS holders, which is searched ring by ring.
        from ccnscale._kernels import _ref

        def holder_ring(xs, ys, g, req, h_idx, h_start, *rest):
            return (np.diff(h_start)[req] > _ref.RING_MIN_HOLDERS).any()

        self._check_fails_if_compiled_errs(monkeypatch, holder_ring)

    def test_check_fails_when_the_kernel_does_not_build(self, tmp_path):
        env = dict(
            os.environ, CC="false", XDG_CACHE_HOME=str(tmp_path), CCNSCALE_BACKEND=""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "ccnscale.cli", "check"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode != 0, proc.stdout
        (line,) = [ln for ln in proc.stdout.splitlines() if "kernel backends" in ln]
        assert line.startswith("FAIL") and "false" in line


class TestCsvRendering:
    def test_float_cells_roundtrip_exactly(self, tmp_path):
        conf = _write(
            tmp_path,
            "rt.conf",
            "mode = adhoc\nn = 500\nalpha = 0.8\nbeta = 0.9\nsim = true\ntrials = 2\n",
        )
        result = run_sweep(conf, out_dir=str(tmp_path / "o"))
        text = open(result.csv_path, encoding="utf-8").read()
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        cells = lines[1].split(",")
        row = result.rows[0]
        get = dict(zip(header, cells))
        assert float(get["optimizer_delay"]) == row.optimizer_delay
        assert float(get["sim_delay_mean"]) == row.sim_delay_mean
        assert int(get["m1"]) == row.m1
        assert get["seeds"] == ";".join(str(s) for s in row.seeds)

    def test_schema_header_first_line(self, tmp_path):
        conf = _write(
            tmp_path, "hdr.conf", "mode = adhoc\nn = 100\nalpha = 0.8\nbeta = 0.9\n"
        )
        result = run_sweep(conf, out_dir=str(tmp_path / "o"))
        first = open(result.csv_path, encoding="utf-8").readline().rstrip("\n")
        assert first == f"# ccn-scale v{cli.__version__} schema=1"

    def test_column_header_rows(self, tmp_path):
        conf = _write(
            tmp_path, "cols.conf", "mode = adhoc\nn = 100\nalpha = 0.8\nbeta = 0.9\n"
        )
        result = run_sweep(conf, out_dir=str(tmp_path / "o"))

        def header(path):
            with open(path, encoding="utf-8") as fh:
                return next(ln for ln in fh if not ln.startswith("#")).rstrip("\n")

        assert header(result.csv_path) == (
            "mode,n,alpha,beta,K,delta,mu,f,cell_area,M,status,m1,m2,"
            "optimizer_delay,predicted_delay,predicted_throughput,predicted_m1,"
            "predicted_m2,sim_delay_mean,sim_delay_stderr,sim_throughput_mean,"
            "sim_throughput_stderr,sim_mean_hops,condition1_rate,condition2_rate,"
            "fallback_rate,trials,seeds"
        )
        assert header(result.regression_csv_path) == (
            "curve,metric,points,slope,intercept,stderr,r_squared"
        )
