"""Monte-Carlo simulator: instance building, request routing, fluid-
model measurement, and trial aggregation."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccnscale import _kernels, sim
from ccnscale._kernels import _ref
from ccnscale.alloc import round_to_integers, solve
from ccnscale.config import Mode, NetworkConfig
from ccnscale.errors import NoHolderError
from ccnscale.geometry import CellGrid
from ccnscale.popularity import zipf
from ccnscale.scaling import expected_hops
from ccnscale.sched import build_schedule

from oracles import (
    bucket_order_by_argsort,
    cell_of,
    from_weights,
    holder_sets_by_full_sorts,
    invert_by_sorted_blocks,
    sample_segment_cells,
    torus_dist,
)

# numpy imports its generator modules on first use; done here, the
# tracemalloc peaks of TestMemory count only what the code under test
# allocates, whichever test runs first.
np.random.default_rng()


def _manual_instance(nodes, holders, g, base_stations=(), delta=1.0):
    grid = CellGrid(g)
    return sim.NetworkInstance.from_holders(
        nodes=np.asarray(nodes, dtype=np.float64),
        base_stations=np.asarray(base_stations, dtype=np.float64).reshape(-1, 2),
        holders=tuple(holders),
        grid=grid,
        schedule=build_schedule(grid, delta),
    )


def _csr_instance(holder_idx, holder_start):
    """Two nodes on a 2x2 grid, with holders given as the CSR pair."""
    grid = CellGrid(2)
    return sim.NetworkInstance(
        [[0.1, 0.1], [0.6, 0.6]], np.zeros((0, 2)), np.asarray(holder_idx),
        np.asarray(holder_start), grid, build_schedule(grid, 1.0),
    )


def _walk(start, end, g):
    """Route a request from ``start`` to the sole holder at ``end``."""
    return sim.trace_request(_manual_instance([start, end], [[1]], g=g), 0, 0)


class TestNetworkConfig:
    def test_catalog_size_rule(self):
        assert NetworkConfig(n=100, alpha=1.0, beta=0.5).M == 10
        assert NetworkConfig(n=10, alpha=1.0, beta=0.5).M == 4

    def test_default_cell_rule_and_override(self):
        cfg = NetworkConfig(n=100, alpha=1.0, beta=0.5)
        assert cfg.a == pytest.approx(2 * math.log(100) / 100)
        cfg2 = NetworkConfig(n=100, alpha=1.0, beta=0.5, cell_area=1 / 16)
        assert cfg2.a == 1 / 16

    def test_base_station_budget(self):
        cfg = NetworkConfig(
            n=100, alpha=1.0, beta=0.5, mode=Mode.HETEROGENEOUS, mu=0.5
        )
        assert cfg.f_count == pytest.approx(10.0)
        assert cfg.base_station_count == 10
        cfg2 = NetworkConfig(
            n=100, alpha=1.0, beta=0.5, mode=Mode.HETEROGENEOUS, f=7.3
        )
        assert cfg2.f_count == 7.3
        assert cfg2.base_station_count == 7
        adhoc = NetworkConfig(n=100, alpha=1.0, beta=0.5)
        assert adhoc.f_count == 0.0
        assert adhoc.base_station_count == 0

    def test_single_node_requires_explicit_cell_area(self):
        cfg = NetworkConfig(n=1, alpha=1.0, beta=0.5, cell_area=1.0)
        assert cfg.M == 1
        with pytest.raises(ValueError):
            NetworkConfig(n=1, alpha=1.0, beta=0.5)

    def test_problem_factories(self):
        cfg = NetworkConfig(n=100, alpha=1.0, beta=0.5)
        prob = cfg.problem()
        assert prob.f == 0.0 and prob.n == 100
        het = NetworkConfig(
            n=100, alpha=1.0, beta=0.5, mode=Mode.HETEROGENEOUS, mu=0.5
        )
        assert het.problem().f == pytest.approx(10.0)

    def test_hashable(self):
        cfg = NetworkConfig(n=100, alpha=1.0, beta=0.5)
        assert {cfg: 1}[cfg] == 1

    def test_validation(self):
        ok = dict(n=100, alpha=1.0, beta=0.5)
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "n": 0})
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "beta": 0.0})
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "alpha": -1.0})
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "K": 0.0})
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "delta": 0.0})
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "W": 0.0})
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "trials": 0})
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "concentration_factor": 0.0})
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "cell_area": 1.5})
        with pytest.raises(ValueError, match="1/n"):
            # more cells than nodes
            NetworkConfig(**{**ok, "cell_area": 0.009})
        NetworkConfig(**{**ok, "cell_area": 0.01})
        with pytest.raises(ValueError):
            # ad hoc mode rejects base-station knobs
            NetworkConfig(**{**ok, "mu": 0.4})
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "f": 3.0})
        with pytest.raises(ValueError):
            # without base stations the caches must fit the catalog
            NetworkConfig(**{**ok, "beta": 1.0})
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "mode": Mode.HETEROGENEOUS})
        with pytest.raises(ValueError):
            NetworkConfig(
                **{**ok, "mode": Mode.HETEROGENEOUS, "mu": 0.4, "f": 3.0}
            )
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "mode": Mode.HETEROGENEOUS, "mu": 1.0})
        with pytest.raises(ValueError):
            NetworkConfig(**{**ok, "mode": Mode.HETEROGENEOUS, "f": -1.0})

    def test_beta_above_one_with_base_stations(self):
        cfg = NetworkConfig(
            n=100, alpha=1.0, beta=1.2, mode=Mode.HETEROGENEOUS, mu=0.5
        )
        assert cfg.M == math.ceil(100**1.2)


class TestBuildInstance:
    def test_single_node_holds_single_content(self):
        cfg = NetworkConfig(n=1, alpha=1.0, beta=0.5, cell_area=1.0)
        inst = sim.build_instance(cfg, [1], seed=5)
        assert inst.n == 1
        assert inst.holders[0].tolist() == [0]
        assert inst.base_stations.shape == (0, 2)

    def test_seed_replay_is_bit_identical(self):
        cfg = NetworkConfig(
            n=300, alpha=0.8, beta=0.6, mode=Mode.HETEROGENEOUS, mu=0.3
        )
        counts = np.ones(cfg.M, dtype=np.int64)
        a = sim.build_instance(cfg, counts, seed=99)
        b = sim.build_instance(cfg, counts, seed=99)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.base_stations, b.base_stations)
        assert all(np.array_equal(x, y) for x, y in zip(a.holders, b.holders))
        c = sim.build_instance(cfg, counts, seed=100)
        assert not np.array_equal(a.nodes, c.nodes)

    def test_holder_sizes_match_allocation(self):
        cfg = NetworkConfig(n=50, alpha=1.0, beta=0.5)
        counts = np.array([5, 3, 2, 1, 1, 1, 1, 0], dtype=np.int64)
        assert cfg.M == len(counts)
        inst = sim.build_instance(cfg, counts, seed=1)
        assert [len(h) for h in inst.holders] == counts.tolist()
        for h in inst.holders:
            assert np.all((0 <= h) & (h < 50))
            assert np.all(np.diff(h) > 0)  # sorted, no duplicates

    def test_rejects_bad_allocations(self):
        cfg = NetworkConfig(n=10, alpha=1.0, beta=0.5)
        with pytest.raises(ValueError):
            sim.build_instance(cfg, [11, 1, 1, 1], seed=0)  # X_m > n
        with pytest.raises(ValueError):
            sim.build_instance(cfg, [-1, 1, 1, 1], seed=0)
        with pytest.raises(ValueError):
            sim.build_instance(cfg, [1, 1, 1], seed=0)  # wrong length

    def test_every_node_in_exactly_one_cell(self):
        cfg = NetworkConfig(n=500, alpha=1.0, beta=0.5)
        inst = sim.build_instance(cfg, np.ones(cfg.M, dtype=np.int64), seed=3)
        occ = inst.cell_occupancy()
        assert occ.sum() == 500
        assert occ.size == inst.grid.side**2

    def test_cell_counts_match_poisson_mean(self):
        n = 10**4
        cfg = NetworkConfig(n=n, alpha=1.0, beta=0.5)
        inst = sim.build_instance(cfg, np.ones(cfg.M, dtype=np.int64), seed=11)
        occ = inst.cell_occupancy()
        lam = n * cfg.a
        sigma_of_mean = math.sqrt(lam / occ.size)
        assert abs(occ.mean() - lam) <= 3 * sigma_of_mean

    @pytest.mark.parametrize(
        "nodes, base_stations",
        [
            ([[-0.3, 0.1], [0.6, 0.6]], []),
            ([[0.1, 1.0], [0.6, 0.6]], []),
            ([[0.1, float("nan")], [0.6, 0.6]], []),
            ([[0.1, 0.1], [0.6, 0.6]], [[0.5, float("inf")]]),
            ([[0.1, 0.1], [0.6, 0.6]], [[1.2, 0.5]]),
        ],
        ids=["node-negative", "node-one", "node-nan", "station-inf", "station-above"],
    )
    def test_rejects_positions_outside_the_unit_square(self, nodes, base_stations):
        # Both kernel backends then see only coordinates in [0, 1).
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
            _manual_instance(nodes, [[1]], g=2, base_stations=base_stations)

    def test_instance_invariant_rejections(self):
        nodes = [[0.1, 0.1], [0.6, 0.6]]
        with pytest.raises(ValueError):
            _manual_instance(nodes, [[1, 0]], g=2)  # unsorted
        with pytest.raises(ValueError):
            _manual_instance(nodes, [[0, 0]], g=2)  # duplicate
        with pytest.raises(ValueError):
            _manual_instance(nodes, [[2]], g=2)  # out of range

        # A node may hold several contents: an index may drop or repeat
        # across a content boundary, but not inside one list.
        nodes = np.random.default_rng(1).random((8, 2))
        for holders in ([[5], [5]], [[3, 7], [1, 2]]):
            inst = _manual_instance(nodes, holders, g=2)
            assert [h.tolist() for h in inst.holders] == holders
        for holders, m in (
            ([[], [], [2, 1]], 2),  # leading empty contents
            ([[0], [1, 1]], 1),
            ([[0], [8]], 1),
            ([[0], [-1]], 1),
            ([[0], [2**32 + 1]], 1),  # 1 once narrowed to int32
            ([[0, 1], [], [3], [7, 9], [2, 1]], 3),  # first of two bad lists
            ([[0.5]], 0),  # not an integer
            ([[1], [2.0]], 1),
            ([[0], [True]], 1),  # bool, which concatenate would promote
            ([[True]], 0),
            ([[[1, 2]]], 0),  # not 1-d
        ):
            with pytest.raises(ValueError, match=rf"^content {m}: "):
                _manual_instance(nodes, holders, g=2)

    def test_drawn_arrays_equal_those_of_the_holder_lists(self):
        # Contents on more than half the nodes (200, 160, 101), on none, and
        # on exactly half (100, drawn directly); those of more than 64
        # holders are stored in bucket order, and ``holders`` gives them
        # back ascending.
        cfg = NetworkConfig(n=200, alpha=1.0, beta=0.5)
        counts = [200, 160, 0, 101, 100, 65, 64, 3, 0, 1]
        counts += [0] * (cfg.M - len(counts))
        inst = sim.build_instance(cfg, counts, seed=4)
        assert inst._hc_idx is inst._h_idx
        assert [len(h) for h in inst.holders] == counts
        for h in inst.holders:
            assert not h.flags.writeable and (np.diff(h) > 0).all()
        ref = sim.NetworkInstance.from_holders(
            inst.nodes, inst.base_stations, inst.holders, inst.grid, inst.schedule
        )
        for name in ("_xs", "_ys", "_occupancy", "_h_idx", "_h_start", "_hc_cell"):
            np.testing.assert_array_equal(getattr(ref, name), getattr(inst, name))
        assert all(np.array_equal(x, y) for x, y in zip(ref.holders, inst.holders))
        with pytest.raises(ValueError, match="read-only"):
            inst.holders[0][0] = 1

    def test_station_columns_are_contiguous(self):
        cfg = NetworkConfig(
            n=300, alpha=0.8, beta=0.6, mode=Mode.HETEROGENEOUS, mu=0.5
        )
        inst = sim.build_instance(cfg, np.ones(cfg.M, dtype=np.int64), seed=2)
        rng = np.random.default_rng(2)  # the nodes are drawn first
        rng.random((cfg.n, 2))
        drawn = rng.random((cfg.base_station_count, 2))
        np.testing.assert_array_equal(inst.base_stations, drawn)
        assert inst.base_stations.T.flags.c_contiguous
        assert inst.base_stations[:, 0].flags.c_contiguous

    @pytest.mark.parametrize(
        "start, match",
        [
            ([1, 2], "starting at 0"),
            (np.zeros(0, dtype=np.int64), "starting at 0"),
            ([0.0, 2.0], "starting at 0"),
            ([0, 2, 1, 2], "not descend"),
            ([0, 1], r"end at len\(holder_idx\) = 2"),
        ],
        ids=["not-at-zero", "empty", "float", "descending", "short"],
    )
    def test_rejects_malformed_holder_start(self, start, match):
        with pytest.raises(ValueError, match=f"^holder_start must .*{match}"):
            _csr_instance([0, 1], np.array(start))

    def test_constructor_takes_the_csr_pair(self):
        for start, holders in (([0, 2], [[0, 1]]), ([0, 1, 1, 2], [[0], [], [1]])):
            inst = _csr_instance([0, 1], start)
            assert [h.tolist() for h in inst.holders] == holders
        with pytest.raises(ValueError, match="^holder_idx must be"):
            _csr_instance([0.0, 1.0], [0, 2])

    @pytest.mark.parametrize("holders", [[[], [], []], []], ids=["empty", "none"])
    def test_contents_without_holders(self, holders):
        inst = _manual_instance([[0.1, 0.1], [0.6, 0.6]], holders, g=2)
        assert inst.m_count == len(holders)
        assert inst._h_start.tolist() == [0] * (len(holders) + 1)
        for name in ("_h_idx", "_hc_idx", "_hc_cell"):
            arr = getattr(inst, name)
            assert arr.shape == (0,) and arr.dtype == np.int32

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_holder_array_layout(self, data):
        # Random nodes on small grids; sorted holder lists, some empty, some
        # sharing nodes with other contents, and some with more than
        # RING_MIN_HOLDERS members, which get a bucket grid of their own.
        n = data.draw(st.integers(1, 100), label="n")
        g = data.draw(st.integers(1, 5), label="g")
        coords = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)
        nodes = data.draw(
            st.lists(st.tuples(coords, coords), min_size=n, max_size=n), label="nodes"
        )
        holders = data.draw(
            st.lists(
                st.one_of(
                    st.sets(st.integers(0, n - 1), max_size=8),
                    st.sets(st.integers(0, n - 1), min_size=n // 2),
                ).map(sorted),
                max_size=8,
            ),
            label="holders",
        )
        inst = _manual_instance(nodes, holders, g=g)

        sizes = [len(h) for h in holders]
        assert inst._h_start.tolist() == np.cumsum([0, *sizes]).tolist()
        assert inst._hc_idx is inst._h_idx
        assert [h.tolist() for h in inst.holders] == holders
        cell = [r * g + c for r, c in (cell_of(x, y, g) for x, y in nodes)]
        occ = inst.cell_occupancy()
        assert not occ.flags.writeable and occ.sum() == n
        np.testing.assert_array_equal(occ, np.bincount(cell, minlength=g * g))
        for m, held in enumerate(holders):
            # Content m's own grid: side floor(sqrt(k)) for k > 64 holders,
            # whose holders are sorted by bucket, then node; a smaller
            # content's stay ascending, all in bucket 0.
            side = math.isqrt(len(held)) if len(held) > 64 else 1
            rc = {i: cell_of(*nodes[i], side) for i in held}
            lo, hi = inst._h_start[m], inst._h_start[m + 1]
            seg = inst._h_idx[lo:hi].tolist()
            assert seg == sorted(held, key=lambda i: (rc[i], i))
            buckets = [r * side + c for r, c in map(rc.get, seg)]
            assert inst._hc_cell[lo:hi].tolist() == buckets


def _assert_bucket_order_of_argsort(inst):
    held = np.concatenate((np.zeros(0, dtype=np.int64), *inst.holders))
    hc_idx, hc_cell = bucket_order_by_argsort(inst._xs, inst._ys, held, inst._h_start)
    for name, want in (("_hc_idx", hc_idx), ("_hc_cell", hc_cell)):
        got = getattr(inst, name)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)


class TestBucketOrder:
    """``_hc_idx``/``_hc_cell`` against the all-holder stable argsort."""

    # Contents of 0, 1, 64 and 65 holders (65 is the smallest searched ring
    # by ring), of all n, dense ones (2X > n), and ring-searched contents
    # between small ones; 22,530 holders to sort, more than one group.
    _N = 3000
    _SIZES = [0, 1, 64, 65, _N, 2000, 3, 100, 0, 64, 65, *[2600] * 6, 1700, 5]

    @pytest.mark.parametrize("block", [None, 50], ids=["default-groups", "tiny-groups"])
    def test_hand_built_contents(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(_ref, "BLOCK", block)
        assert sum(k for k in self._SIZES if k > 64) > _ref.BLOCK
        rng = np.random.default_rng(12)
        holders = [np.sort(rng.choice(self._N, size=k, replace=False)) for k in self._SIZES]
        inst = _manual_instance(rng.random((self._N, 2)), holders, g=20)
        _assert_bucket_order_of_argsort(inst)

    @pytest.mark.parametrize(
        "point",
        [dict(alpha=0.8), dict(alpha=1.2, mode=Mode.HETEROGENEOUS, mu=0.4)],
        ids=["ad-hoc", "heterogeneous"],
    )
    def test_drawn_instances(self, point):
        cfg = NetworkConfig(n=20_000, beta=0.9, **point)
        prob = cfg.problem()
        inst = sim.build_instance(cfg, round_to_integers(solve(prob), prob), seed=8)
        assert (np.diff(inst._h_start) > 64).any()
        _assert_bucket_order_of_argsort(inst)


class _CountingRng:
    """A seeded generator that fails on its ``integers`` call past ``limit``."""

    def __init__(self, seed, limit):
        self._rng = np.random.default_rng(seed)
        self.calls = 0
        self.limit = limit

    def integers(self, *args, **kwargs):
        self.calls += 1
        assert self.calls <= self.limit, f"more than {self.limit - 1} redraw rounds"
        return self._rng.integers(*args, **kwargs)


# Upper 0.1% points of the chi-square distribution, by degrees of freedom.
_CHI2_999 = {5: 20.515, 19: 43.820, 35: 66.619}


def _chi_square_uniform(codes, cells):
    """Chi-square statistic of ``codes`` against a uniform law on ``cells``."""
    obs = np.array([np.count_nonzero(codes == c) for c in cells])
    assert obs.sum() == codes.size  # no code outside the cells
    expected = codes.size / len(cells)
    return float(((obs - expected) ** 2 / expected).sum())


def _subset_codes(idx, n, x):
    """Bit mask of every set of x holders in the CSR index array ``idx``,
    and the masks of all x-subsets of range(n)."""
    codes = (1 << idx.reshape(-1, x)).sum(axis=1)
    return codes, [sum(1 << i for i in c) for c in itertools.combinations(range(n), x)]


def _assert_draws_like_full_sorts(n, counts, seed):
    """Holder sets of ``_draw_holder_sets`` against the draw that sorts in
    full every round, which must also leave its generator in the same state."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    idx, start = sim._draw_holder_sets(rng, n, counts)
    want_idx, want_start = holder_sets_by_full_sorts(ref, n, counts)
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(start, want_start)
    assert rng.bit_generator.state == ref.bit_generator.state


class TestHolderDraw:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_sets_are_sorted_distinct_and_sized(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        size = st.one_of(
            st.sampled_from([0, n, min(n, n // 2 + 1), min(n, n // 2 + 2)]),
            st.integers(0, n),
        )
        counts = data.draw(st.lists(size, max_size=12), label="counts")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        idx, start = sim._draw_holder_sets(rng, n, np.array(counts, dtype=np.int64))
        assert (idx.dtype, start.dtype) == (np.int32, np.int64)
        assert start.tolist() == np.cumsum([0, *counts]).tolist()
        assert idx.size == start[-1]
        for lo, hi in zip(start[:-1], start[1:]):
            s = idx[lo:hi]
            assert np.all(np.diff(s) > 0)
            assert s.size == 0 or (s[0] >= 0 and s[-1] < n)

    @pytest.mark.parametrize("x", [3, 5], ids=["sparse", "dense"])
    def test_every_subset_is_equally_likely(self, x):
        n, draws = 6, 40_000
        rng = np.random.default_rng(2024)
        idx, start = sim._draw_holder_sets(rng, n, np.full(draws, x, dtype=np.int64))
        assert start.tolist() == list(range(0, draws * x + 1, x))
        codes, cells = _subset_codes(idx, n, x)
        assert _chi_square_uniform(codes, cells) < _CHI2_999[len(cells) - 1]

    def test_contents_are_independent(self):
        # Two 2-subsets of 4 nodes per draw, redrawn in the same rounds:
        # all 36 pairs of subsets must be equally likely.
        n, draws = 4, 36_000
        rng = np.random.default_rng(77)
        idx, _ = sim._draw_holder_sets(rng, n, np.full(2 * draws, 2, dtype=np.int64))
        codes, cells = _subset_codes(idx, n, 2)
        pairs = codes[0::2] * 16 + codes[1::2]
        joint = [a * 16 + b for a in cells for b in cells]
        assert _chi_square_uniform(pairs, joint) < _CHI2_999[35]

    @pytest.mark.parametrize("x", [10**5, 10**5 - 1], ids=["all", "all-but-one"])
    def test_dense_content_needs_no_redraw_round(self, x):
        n = 10**5
        rng = _CountingRng(seed=5, limit=1)
        s, start = sim._draw_holder_sets(rng, n, np.array([x], dtype=np.int64))
        assert start.tolist() == [0, x]
        assert s.size == x and np.all(np.diff(s) > 0)
        assert s[0] >= 0 and s[-1] < n
        if x == n:
            np.testing.assert_array_equal(s, np.arange(n))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_equals_the_full_sort_per_round(self, data):
        # Counts just above n/2 are dense and draw just under n/2 slots, and
        # n/2 itself draws n/2: the cases with the most redraw rounds.
        n = data.draw(st.integers(1, 300), label="n")
        size = st.one_of(
            st.sampled_from([0, n, n // 2, min(n, n // 2 + 1), min(n, n // 2 + 2)]),
            st.integers(0, n),
        )
        counts = data.draw(st.lists(size, max_size=30), label="counts")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        _assert_draws_like_full_sorts(n, np.array(counts, dtype=np.int64), seed)

    @pytest.mark.parametrize("extra", [0, 1, 2], ids=["half", "half+1", "half+2"])
    def test_many_rounds_equal_the_full_sort_per_round(self, extra):
        n = 10_000
        _assert_draws_like_full_sorts(n, np.full(40, n // 2 + extra, dtype=np.int64), extra)

    def test_heterogeneous_without_stations_draws_the_ad_hoc_instance(self):
        adhoc = NetworkConfig(n=400, alpha=0.8, beta=0.6)
        het = NetworkConfig(
            n=400, alpha=0.8, beta=0.6, mode=Mode.HETEROGENEOUS, f=0.5
        )
        assert het.base_station_count == 0
        counts = np.linspace(0, adhoc.n, adhoc.M).astype(np.int64)
        a = sim.build_instance(adhoc, counts, seed=21)
        h = sim.build_instance(het, counts, seed=21)
        assert np.array_equal(a.nodes, h.nodes)
        assert h.base_stations.shape == (0, 2)
        assert all(np.array_equal(x, y) for x, y in zip(a.holders, h.holders))


class TestMemory:
    """Bytes one instance holds, and the transient peaks of the constructor,
    the request draw and a run of trials, at the largest sample-config
    size: n = 10**6, M = 251,189, ad hoc at alpha = 0.8 and heterogeneous at
    alpha = 1.2, where nearly every holder belongs to a content searched
    ring by ring."""

    # Interpreter objects (the instance, its grid and schedule) on top of
    # the arrays; an n-sized int64 array is 8 MB.
    _SLACK = 1 << 16

    @staticmethod
    def _peak(make):
        """Peak traced bytes above those traced before ``make()`` ran."""
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            make()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "point",
        [dict(alpha=0.8), dict(alpha=1.2, mode=Mode.HETEROGENEOUS, mu=0.4)],
        ids=["ad-hoc", "heterogeneous"],
    )
    def test_constructor_peak(self, point):
        cfg = NetworkConfig(n=10**6, beta=0.9, **point)
        prob = cfg.problem()
        counts = round_to_integers(solve(prob), prob)
        rng = np.random.default_rng(1)
        nodes = rng.random((cfg.n, 2))
        idx, start = sim._draw_holder_sets(rng, cfg.n, counts)
        grid = CellGrid.from_area(cfg.a)
        schedule = build_schedule(grid, cfg.delta)
        peak = self._peak(
            lambda: sim.NetworkInstance(nodes, np.zeros((0, 2)), idx, start, grid, schedule)
        )
        # The sort phase holds the most: what the instance keeps beyond its
        # inputs, the coordinates (2n), the holders in bucket order with
        # their buckets (2H), the node count per cell (g²), the holder
        # counts (M), and one sort group at a time, about ten int64 arrays
        # of its holders, at most _ref.BLOCK plus the largest content's.
        # The count per cell before it holds 2n + g² and a few blocks of
        # nodes.
        n, h, m, g = cfg.n, int(counts.sum()), cfg.M, grid.side
        group = 10 * (_ref.BLOCK + int(counts.max()))
        assert peak <= 8 * (2 * n + 2 * h + g * g + m + group) + self._SLACK

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 1.8])
    def test_request_draw_peak(self, alpha):
        # At alpha = 1.8 most of the catalog sits in the guide's last buckets.
        cfg = NetworkConfig(n=10**6, alpha=alpha, beta=0.9)
        inst = _holderless_instance(cfg.n, cfg.M)
        pop = cfg.popularity()
        peak = self._peak(lambda: sim.draw_requests(inst, pop, seed=2))
        # The requests (n int32) and the CDF (M float64), and a few arrays
        # of one block, the guide table among them; choice and the cast to
        # int64 held 2n + M int64s.
        n, m = cfg.n, cfg.M
        assert peak <= 4 * n + 8 * m + 8 * 8 * sim._REQUEST_BLOCK + self._SLACK

    def test_instance_holds_each_array_once(self):
        cfg = NetworkConfig(n=10**6, alpha=0.8, beta=0.9)
        assert cfg.M == 251_189
        prob = cfg.problem()
        counts = round_to_integers(solve(prob), prob)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            inst = sim.build_instance(cfg, counts, seed=1)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # The coordinates (2n float64), one holder array with the holders'
        # buckets (2H int32), the offsets (M + 1 int64), and the node count
        # (int32) and the schedule's slot (int64) per cell.
        n, h, g = cfg.n, int(counts.sum()), inst.grid.side
        assert held <= 16 * n + 8 * h + 8 * (cfg.M + 1) + 12 * g * g + self._SLACK

    @pytest.mark.parametrize(
        "point",
        [dict(alpha=0.8), dict(alpha=1.2, mode=Mode.HETEROGENEOUS, mu=0.4)],
        ids=["ad-hoc", "heterogeneous"],
    )
    def test_trial_peak(self, point):
        cfg = NetworkConfig(n=10**6, beta=0.9, **point)
        prob = cfg.problem()
        counts = round_to_integers(solve(prob), prob)
        peak = self._peak(lambda: sim.run_trials(cfg, counts, seeds=[5]))
        # The kernel call holds the most: the instance's coordinates (2n
        # float64), holders and their bucket ids (2H int32), offsets (M + 1
        # int64), and node count (int32) and slot (int64) per cell; the
        # popularity vector (M float64) and the requests (n int32); the
        # bucket table's sides (M int32), offsets (M + 1 int64) and one
        # int64 per bucket plus one; the hops (n int32), status (n int8)
        # and the loads of up to two parts (2g² int64); with stations, the
        # visit order (n int32).
        n, h, m = cfg.n, int(counts.sum()), cfg.M
        g = CellGrid.from_area(cfg.a).side
        side = _ref.grid_sides(counts)
        buckets = int((side * side).sum())
        order = 4 * n if cfg.base_station_count else 0
        bound = (
            16 * n + 8 * h + 8 * (m + 1) + 12 * g * g
            + 8 * m + 4 * n
            + 4 * m + 8 * (m + 1) + 8 * (buckets + 1)
            + 5 * n + 16 * g * g + order
            + self._SLACK
        )
        assert bound <= 55 * n
        assert peak <= bound

    def test_trials_hold_one_instance_at_a_time(self):
        # Two trials on one seed, so the second repeats the first: it may
        # add only the first trial's measurement, its hops (n) and loads
        # (g²), and not the first trial's instance and requests.
        cfg = NetworkConfig(n=10**6, alpha=0.8, beta=0.9)
        prob = cfg.problem()
        counts = round_to_integers(solve(prob), prob)
        one, two = (
            self._peak(lambda: sim.run_trials(cfg, counts, seeds=[5] * k))
            for k in (1, 2)
        )
        n, g = cfg.n, CellGrid.from_area(cfg.a).side
        assert two <= one + 8 * (n + g * g) + self._SLACK


# More requests than three blocks of the sampler, the last block partial.
_MULTI_BLOCK = 3 * sim._REQUEST_BLOCK + 5


def _assert_draws_like_choice(p, n, seed):
    """Requests of ``draw_requests`` against ``Generator.choice``, which must
    also leave its generator in the same state; returns the requests."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sim._invert_guided(rng, p, n)
    want = ref.choice(p.size, size=n, p=p)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == ref.bit_generator.state
    return got


class _StubRng:
    """A generator whose ``random`` hands out the given uniforms in order."""

    def __init__(self, u):
        self._u = np.asarray(u, dtype=np.float64)
        self._at = 0

    def random(self, size):
        out = self._u[self._at:self._at + size]
        self._at += size
        assert out.size == size, "more uniforms asked for than given"
        return out.copy()


def _holderless_instance(n, m_count):
    """n nodes in one cell and m_count contents that nobody holds."""
    grid = CellGrid(1)
    return sim.NetworkInstance(
        np.full((n, 2), 0.5), np.zeros((0, 2)), np.zeros(0, dtype=np.int64),
        np.zeros(m_count + 1, dtype=np.int64), grid, build_schedule(grid, 1.0),
    )


def _requests_of(pop, n, seed):
    return sim.draw_requests(_holderless_instance(n, pop.m_count), pop, seed)


class TestDrawRequests:
    def test_deterministic_and_in_range(self):
        cfg = NetworkConfig(n=400, alpha=0.8, beta=0.6)
        inst = sim.build_instance(cfg, np.ones(cfg.M, dtype=np.int64), seed=1)
        pop = cfg.popularity()
        r1 = sim.draw_requests(inst, pop, seed=7)
        r2 = sim.draw_requests(inst, pop, seed=7)
        assert np.array_equal(r1, r2)
        assert r1.shape == (400,)
        assert r1.min() >= 0 and r1.max() < cfg.M

    def test_follows_popularity(self):
        cfg = NetworkConfig(n=20000, alpha=1.2, beta=0.4)
        inst = sim.build_instance(cfg, np.ones(cfg.M, dtype=np.int64), seed=1)
        pop = cfg.popularity()
        reqs = sim.draw_requests(inst, pop, seed=21)
        freq0 = np.mean(reqs == 0)
        p0 = pop.p[0]
        assert abs(freq0 - p0) <= 5 * math.sqrt(p0 * (1 - p0) / 20000)

    def test_rejects_mismatched_popularity(self):
        cfg = NetworkConfig(n=50, alpha=1.0, beta=0.5)
        inst = sim.build_instance(cfg, np.ones(cfg.M, dtype=np.int64), seed=1)
        with pytest.raises(ValueError):
            sim.draw_requests(inst, zipf(cfg.M + 1, 1.0), seed=0)

    @pytest.mark.parametrize("alpha", [0.0, 0.8, 1.2, 1.6])
    @pytest.mark.parametrize("n", [1, 5, 10_000, _MULTI_BLOCK])
    @pytest.mark.parametrize("m_count", [1, 2, 7, 3982])
    def test_equals_generator_choice(self, m_count, n, alpha):
        pop = zipf(m_count, alpha)
        got = _assert_draws_like_choice(pop.p, n, seed=m_count + n)
        np.testing.assert_array_equal(_requests_of(pop, n, m_count + n), got)

    @pytest.mark.parametrize("n", [1, 5, 10_000, _MULTI_BLOCK])
    def test_tied_weights_equal_generator_choice(self, n):
        pop = from_weights([3.0, 1.0, 3.0, 2.0, 2.0, 1.0, 3.0, 0.5, 0.5])
        assert np.any(pop.p[1:] == pop.p[:-1])
        got = _assert_draws_like_choice(pop.p, n, seed=n)
        np.testing.assert_array_equal(_requests_of(pop, n, n), got)

    def test_uniform_on_a_cut_off_goes_to_the_next_content(self):
        # choice counts the cut-offs at or below u (searchsorted side="right").
        seed, n = 3, 1000
        u = np.random.default_rng(seed).random(n)
        c = u[u >= 0.5][0]  # 1 - c and c + (1 - c) = 1 are exact
        p = np.array([c, 1.0 - c])
        assert p.cumsum().tolist() == [c, 1.0]
        got = _assert_draws_like_choice(p, n, seed)
        assert got[u == c].tolist() == [1]

    def test_cut_offs_are_those_of_the_normalized_cdf(self):
        # p sums to 1 + 2**-30: the raw running sum puts one uniform below
        # the cut-off, the normalized CDF that choice inverts puts it above.
        seed, n = 4, 1000
        u = np.random.default_rng(seed).random(n)
        c = u[n // 2]
        a = c * (1.0 - 2.0**-40)
        p = np.array([a, 1.0 - a]) * (1.0 + 2.0**-30)
        cdf = p.cumsum()
        assert cdf[0] > c > cdf[0] / cdf[-1]
        got = _assert_draws_like_choice(p, n, seed)
        assert got[u == c].tolist() == [1]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_equals_the_sorted_block_search(self, data):
        # Zero weights make the CDF flat; a long run of them puts more
        # entries in one bucket than the walk steps, so the search resolves
        # the uniforms past it.
        weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(1.0, 1e6))
        runs = st.lists(st.tuples(weight, st.integers(1, 30)), min_size=1, max_size=60)
        w, reps = map(np.array, zip(*data.draw(runs, label="runs of weights")))
        w = w.repeat(reps)
        if w.sum() == 0:
            w[data.draw(st.integers(0, w.size - 1), label="nonzero")] = 1.0
        p = w / w.sum()
        n = data.draw(st.one_of(st.integers(0, 40), st.sampled_from([_MULTI_BLOCK])), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sim._invert_guided(rng, p, n)
        np.testing.assert_array_equal(got, invert_by_sorted_blocks(ref, p, n))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize(
        "m_count, alpha", [(1, 0.8), (2, 0.8), (2, 1.8), (251_189, 1.8), (251_189, 0.8)]
    )
    def test_equals_the_sorted_block_search_on_zipf(self, m_count, alpha):
        p = zipf(m_count, alpha).p
        n = 200_000
        rng, ref = np.random.default_rng(m_count), np.random.default_rng(m_count)
        got = sim._invert_guided(rng, p, n)
        np.testing.assert_array_equal(got, invert_by_sorted_blocks(ref, p, n))
        assert rng.bit_generator.state == ref.bit_generator.state
        if alpha == 1.8 and m_count > 2:
            # The tail buckets hold more entries than the first check and
            # the walk's steps reach, so the binary search ran.
            cdf = p.cumsum()
            cdf /= cdf[-1]
            guide = sim._guide_table(cdf)
            u = np.random.default_rng(m_count).random(n)
            start = guide[(u * (guide.size - 1)).astype(np.int64)]
            assert (got - start > 1 + sim._GUIDE_STEPS).any()

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0],
            [1.0, 3.0],
            [0.0, 1.0, 0.0, 0.0, 2.0, 0.0],
            zipf(3982, 1.2).p,
            zipf(70_000, 0.8).p,
        ],
        ids=["M=1", "M=2", "zero-weights", "zipf-3982", "zipf-70000-capped"],
    )
    def test_uniforms_on_bucket_edges_and_cut_offs(self, weights):
        # Uniforms exactly on each bucket edge j/G, on each cut-off of the
        # CDF, one ulp to either side of both, and at 0 and 1 - 2**-53.
        p = np.array(weights) / math.fsum(weights)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        G = sim._guide_table(cdf).size - 1
        assert G == min(1 << (p.size - 1).bit_length(), 1 << 16)
        edges = np.arange(G) / G
        cuts = cdf[cdf < 1.0]
        u = np.concatenate((edges, cuts, [0.0, 1.0 - 2.0**-53]))
        u = np.concatenate((u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)))
        u = u[(u >= 0.0) & (u < 1.0)]
        got = sim._invert_guided(_StubRng(u), p, u.size)
        np.testing.assert_array_equal(got, cdf.searchsorted(u, "right"))

    @pytest.mark.parametrize(
        "shift, theirs, ours",
        [
            ((1e-6, 0.0), "Probabilities do not sum to 1", "^popularity vector sums to"),
            ((0.5, -0.5), "Probabilities are not non-negative", "^popularity weights must not"),
        ],
        ids=["sum-off-one", "negative"],
    )
    def test_rejects_a_vector_changed_after_construction(self, shift, theirs, ours):
        # choice checks the signs and the sum of p on every call, so a vector
        # changed after the model checked it is still refused.
        cfg = NetworkConfig(n=50, alpha=1.0, beta=0.5)
        inst = sim.build_instance(cfg, np.ones(cfg.M, dtype=np.int64), seed=1)
        pop = cfg.popularity()
        pop.p[:2] += shift
        with pytest.raises(ValueError, match=theirs):
            np.random.default_rng(0).choice(cfg.M, size=cfg.n, p=pop.p)
        with pytest.raises(ValueError, match=ours):
            sim.draw_requests(inst, pop, seed=0)


class TestTraceRequest:
    def test_same_cell_holder_is_one_hop(self):
        inst = _manual_instance(
            [[0.1, 0.1], [0.2, 0.2]], [[1]], g=4
        )
        hops, cells = sim.trace_request(inst, 0, 0)
        assert hops == 1
        assert cells == [(0, 0)]

    def test_straight_line_walk(self):
        inst = _manual_instance(
            [[1 / 8, 1 / 8], [5 / 8, 1 / 8]], [[1]], g=4
        )
        hops, cells = sim.trace_request(inst, 0, 0)
        assert cells == [(0, 0), (0, 1), (0, 2)]
        assert hops == 2

    def test_requester_excludes_own_cache(self):
        inst = _manual_instance(
            [[1 / 8, 1 / 8], [5 / 8, 1 / 8]], [[0, 1]], g=4
        )
        hops, cells = sim.trace_request(inst, 0, 0)
        assert hops == 2  # routed to node 1, not served locally

    def test_sole_holder_serves_itself(self):
        inst = _manual_instance([[0.3, 0.7]], [[0]], g=2)
        hops, cells = sim.trace_request(inst, 0, 0)
        assert hops == 1
        assert cells == [(1, 0)]

    def test_no_holder_raises(self):
        inst = _manual_instance([[0.3, 0.7]], [[]], g=2)
        with pytest.raises(NoHolderError):
            sim.trace_request(inst, 0, 0)

    def test_unheld_content_goes_to_base_station(self):
        inst = _manual_instance(
            [[1 / 8, 1 / 8]], [[]], g=4, base_stations=[[5 / 8, 1 / 8]]
        )
        hops, cells = sim.trace_request(inst, 0, 0)
        assert cells == [(0, 0), (0, 1), (0, 2)]
        assert hops == 2

    def test_node_wins_distance_tie_against_base_station(self):
        inst = _manual_instance(
            [[0.5, 0.5], [0.25, 0.5]],
            [[1]],
            g=4,
            base_stations=[[0.75, 0.5]],
        )
        hops, cells = sim.trace_request(inst, 0, 0)
        # equidistant: the wireless node at col 1 wins, walk goes left
        assert cells[-1] == (2, 1)

    def test_single_cell_segment(self):
        assert _walk((0.30, 0.30), (0.45, 0.45), g=4) == (1, [(1, 1)])

    def test_axis_parallel_two_and_a_half_cells(self):
        # Start mid-cell, go +x for 2.5 cell widths: 4 cells crossed.
        s = 1 / 8
        _, cells = _walk((0.5 * s, 0.5 * s), (3.0 * s, 0.5 * s), g=8)
        assert cells == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_corner_crossing_steps_diagonally(self):
        _, cells = _walk((1 / 8, 1 / 8), (5 / 8, 5 / 8), g=4)
        assert cells == [(0, 0), (1, 1), (2, 2)]

    def test_wraparound_crossing(self):
        _, cells = _walk((0.95, 0.5), (0.05, 0.5), g=4)
        assert cells == [(2, 3), (2, 0)]

    def test_single_cell_grid_collapses(self):
        assert _walk((0.9, 0.9), (0.3, 0.2), g=1) == (1, [(0, 0)])

    def test_walk_ending_on_a_lattice_line_lands_on_the_holder_cell(self):
        # Walking -x across the wrap onto the line x = 6/7 takes one step,
        # into the holder's column 6, not on into column 5; so does the
        # reverse walk.
        assert _walk((0.0, 0.5), (6 / 7, 0.5), g=7) == (1, [(3, 0), (3, 6)])
        assert _walk((6 / 7, 0.5), (0.0, 0.5), g=7) == (1, [(3, 6), (3, 0)])

    def _check_walk(self, start, end, g):
        hops, cells = _walk(start, end, g)
        length = torus_dist(*start, *end)
        assert hops == max(1, len(cells) - 1)
        assert hops >= max(1, math.floor(length * g))
        assert cells[0] == cell_of(*start, g)
        assert cells[-1] == cell_of(*end, g)
        assert len(cells) <= 2 * (math.ceil(length * g) + 2)
        assert len(set(cells)) == len(cells)
        for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
            assert (r0, c0) != (r1, c1)
            dr = min((r1 - r0) % g, (r0 - r1) % g)
            dc = min((c1 - c0) % g, (c0 - c1) % g)
            assert dr <= 1 and dc <= 1  # 8-neighborhood connectivity
        sampled = sample_segment_cells(*start, *end, g, oversample=300)
        assert sampled <= set(cells)

    def test_random_segments_against_sampling_oracle(self):
        rng = np.random.default_rng(99)
        for g in (1, 2, 3, 5, 8, 16, 37):
            for _ in range(60):
                self._check_walk(tuple(rng.random(2)), tuple(rng.random(2)), g)

    def test_boundary_aligned_segments(self):
        # Endpoints sitting exactly on cell edges, axis-aligned runs.
        for start, end in (
            ((0.2, 0.4), (0.6, 0.4)),
            ((0.0, 0.0), (0.0, 0.4)),
            ((0.4, 0.2), (0.4, 0.8)),
        ):
            self._check_walk(start, end, g=5)

    def test_hop_count_bounds_random(self):
        rng = np.random.default_rng(77)
        g = 8
        s = 1 / g
        for _ in range(200):
            nodes = rng.random((2, 2))
            inst = _manual_instance(nodes, [[1]], g=g)
            d = torus_dist(*nodes[0], *nodes[1])
            hops, cells = sim.trace_request(inst, 0, 0)
            assert max(1, math.floor(d / s)) <= hops <= 2 * (math.ceil(d / s) + 2)
            # walk starts at the requester's cell, ends at the holder's
            assert cells[0] == cell_of(*nodes[0], g)
            assert cells[-1] == cell_of(*nodes[1], g)

    def test_rejects_bad_indices(self):
        inst = _manual_instance([[0.1, 0.1], [0.2, 0.2]], [[1]], g=4)
        with pytest.raises(ValueError):
            sim.trace_request(inst, 2, 0)
        with pytest.raises(ValueError):
            sim.trace_request(inst, 0, 1)

    @pytest.mark.parametrize(
        "cfg,station_ring",
        [
            (NetworkConfig(n=3000, alpha=0.8, beta=0.9, seed=5), False),
            (
                NetworkConfig(
                    n=3000, alpha=1.2, beta=0.9, mode=Mode.HETEROGENEOUS, mu=0.4,
                    seed=5,
                ),
                False,
            ),
            # 70 stations: the station ring search
            (
                NetworkConfig(
                    n=3000, alpha=1.2, beta=0.9, mode=Mode.HETEROGENEOUS, f=70.0,
                    seed=5,
                ),
                True,
            ),
        ],
        ids=["adhoc", "heterogeneous", "station-ring"],
    )
    def test_single_requests_match_the_batch(self, cfg, station_ring):
        # Every node's request, traced alone by the reference, takes the
        # hops and charges the cells that measure() gives it in the active
        # backend, including requests for a content nobody caches.
        prob = cfg.problem()
        allocation = round_to_integers(solve(prob), prob)
        allocation[-1] = 0
        inst = sim.build_instance(cfg, allocation, seed=11)
        ring = len(inst.base_stations) > _kernels.RING_MIN_HOLDERS
        assert ring == station_ring
        reqs = sim.draw_requests(inst, cfg.popularity(), seed=13)
        reqs[::7] = cfg.M - 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            meas = sim.measure(inst, reqs)
        g = inst.grid.side
        loads = np.zeros(g * g, dtype=np.int64)
        unroutable = 0
        for i, m in enumerate(reqs):
            try:
                hops, cells = sim.trace_request(inst, i, int(m))
            except NoHolderError:
                # measure() charges it one hop in the requester's own cell
                unroutable += 1
                hops, cells = 1, [cell_of(*inst.nodes[i], g)]
            assert hops == meas.request_hops[i]
            for row, col in cells[:-1] or cells:
                loads[row * g + col] += 1
        np.testing.assert_array_equal(loads, meas.lines_per_cell)
        held_by_nobody = np.count_nonzero(reqs == cfg.M - 1)
        assert unroutable == (0 if inst.base_stations.size else held_by_nobody)
        assert [str(w.message).split()[0] for w in caught] == (
            [str(unroutable)] if unroutable else []
        )


class TestMeasure:
    def _four_node_instance(self, delta=1.0):
        # two same-cell pairs; every request resolves within its cell
        nodes = [[0.05, 0.05], [0.1, 0.1], [0.6, 0.6], [0.65, 0.65]]
        return _manual_instance(nodes, [[0, 1, 2, 3]], g=4, delta=delta)

    def test_one_hop_network(self):
        inst = self._four_node_instance()
        meas = sim.measure(inst, [0, 0, 0, 0])
        frame = inst.schedule.bound + 1
        assert meas.mean_hops == 1.0
        assert meas.realized_delay == pytest.approx(2 * frame)
        assert meas.max_load == 2.0
        assert not meas.condition1_ok  # 4 nodes cannot fill 16 cells
        assert meas.fallback_used

    def test_fallback_values(self):
        inst = self._four_node_instance()
        meas = sim.measure(inst, [0, 0, 0, 0], W=3.0)
        frame = inst.schedule.bound + 1
        assert meas.realized_throughput == pytest.approx(3.0 / 4)
        assert meas.realized_delay == pytest.approx(2 * frame)

    def test_conditions_pass_when_cells_filled(self):
        # one node per cell on a 2x2 grid, content held by everyone
        nodes = [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
        inst = _manual_instance(nodes, [[0, 1, 2, 3]], g=2)
        meas = sim.measure(inst, [0, 0, 0, 0])
        frame = inst.schedule.bound + 1
        assert meas.condition1_ok and meas.condition2_ok
        assert not meas.fallback_used
        assert meas.realized_delay == pytest.approx(2 * frame * meas.mean_hops)
        assert meas.realized_throughput == pytest.approx(
            1.0 / (frame * meas.max_load)
        )

    def test_tight_concentration_factor_forces_fallback(self):
        nodes = [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
        inst = _manual_instance(nodes, [[0, 1, 2, 3]], g=2)
        meas = sim.measure(inst, [0, 0, 0, 0], concentration_factor=0.9)
        assert meas.condition1_ok
        assert not meas.condition2_ok
        assert meas.fallback_used
        assert meas.realized_throughput == pytest.approx(1.0 / 4)

    def test_bookkeeping_identity_random_instances(self):
        for seed in range(8):
            mode = Mode.HETEROGENEOUS if seed % 2 else Mode.ADHOC
            kw = {"mu": 0.4} if mode is Mode.HETEROGENEOUS else {}
            cfg = NetworkConfig(
                n=400, alpha=0.9, beta=0.6, mode=mode, seed=seed, **kw
            )
            counts = np.ones(cfg.M, dtype=np.int64)
            inst = sim.build_instance(cfg, counts, seed=seed)
            reqs = sim.draw_requests(inst, cfg.popularity(), seed=seed + 100)
            meas = sim.measure(inst, reqs)
            assert int(meas.lines_per_cell.sum()) == meas.hops_total
            assert meas.hops_total == int(meas.request_hops.sum())
            assert np.all(meas.request_hops >= 1)
            tradeoff = (
                meas.realized_delay
                * meas.realized_throughput
                * (cfg.n * cfg.a)
            )
            assert math.isfinite(tradeoff) and tradeoff > 0

    @pytest.mark.parametrize("alpha", [0.8, 1.2])
    def test_hop_agreement_with_formula(self, alpha):
        # Sampled hops track max(1, 1/sqrt(a X)) up to a geometric
        # constant: a random direction crosses (|dx|+|dy|)/s cell walls,
        # E|cos|+E|sin| = 4/pi, and E[d] sqrt(X) -> 1/2, so the ratio
        # tends to 2/pi ~ 0.64 in the multi-hop regime and to 1 in the
        # one-hop floor regime.
        n = 10**4
        cfg = NetworkConfig(n=n, alpha=alpha, beta=0.9, seed=5)
        prob = cfg.problem()
        xi = round_to_integers(solve(prob), prob)
        inst = sim.build_instance(cfg, xi, seed=5)
        reqs = sim.draw_requests(inst, cfg.popularity(), seed=6)
        meas = sim.measure(inst, reqs)
        a = inst.grid.a
        checked = floor_checked = scaled_checked = 0
        for m in range(cfg.M):
            mask = reqs == m
            if mask.sum() < 100:
                continue
            sample = float(meas.request_hops[mask].mean())
            want = expected_hops(a, float(xi[m]))
            assert 0.55 <= sample / want <= 1.15
            checked += 1
            if want <= 1.3:  # floor regime: the plain band holds
                assert abs(sample - want) <= 0.25 * want
                floor_checked += 1
            if want >= 2.0:  # multi-hop regime: constant is 2/pi
                assert abs(sample / want - 2 / math.pi) <= 0.25 * (2 / math.pi)
                scaled_checked += 1
        assert checked >= 5
        assert floor_checked + scaled_checked >= 3

    def test_heterogeneous_f_zero_matches_ad_hoc_bitwise(self):
        adhoc = NetworkConfig(n=500, alpha=0.8, beta=0.6, trials=3, seed=9)
        het = NetworkConfig(
            n=500, alpha=0.8, beta=0.6, trials=3, seed=9,
            mode=Mode.HETEROGENEOUS, f=0.0,
        )
        counts = np.ones(adhoc.M, dtype=np.int64)
        sa = sim.run_trials(adhoc, counts)
        sh = sim.run_trials(het, counts)
        for ma, mh in zip(sa.measurements, sh.measurements):
            assert np.array_equal(ma.lines_per_cell, mh.lines_per_cell)
            assert np.array_equal(ma.request_hops, mh.request_hops)
            assert ma.realized_delay == mh.realized_delay
            assert ma.realized_throughput == mh.realized_throughput

    def test_unroutable_requests_warn(self):
        # Content 1 is held by nobody and no base station serves it: each
        # of its two requests is charged one hop in its own cell, and one
        # warning says so.
        nodes = [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
        inst = _manual_instance(nodes, [[0, 1, 2, 3], []], g=2)
        with pytest.warns(RuntimeWarning, match="^2 requests had no holder") as rec:
            meas = sim.measure(inst, [0, 1, 0, 1])
        assert len(rec) == 1
        assert "one hop in its own cell" in str(rec[0].message)
        assert meas.request_hops.tolist() == [1, 1, 1, 1]
        assert int(meas.lines_per_cell.sum()) == meas.hops_total == 4

    def test_lost_charge_raises(self, monkeypatch):
        # A kernel that drops one cell charge breaks load = hops.
        real = _kernels.trace_batch

        def dropping(*args):
            hops, loads, status = real(*args)
            loads[np.flatnonzero(loads)[0]] -= 1
            return hops, loads, status

        monkeypatch.setattr(sim._kernels, "trace_batch", dropping)
        with pytest.raises(RuntimeError, match="charged 3 cell loads for 4 hops"):
            sim.measure(self._four_node_instance(), [0, 0, 0, 0])

    def test_routable_trials_do_not_warn(self):
        cfg = NetworkConfig(n=500, alpha=0.8, beta=0.6, trials=2, seed=2)
        prob = cfg.problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sim.run_trials(cfg, round_to_integers(solve(prob), prob))

    def test_validation(self):
        inst = self._four_node_instance()
        with pytest.raises(ValueError):
            sim.measure(inst, [0, 0, 0])  # wrong length
        with pytest.raises(ValueError):
            sim.measure(inst, [0, 0, 0, 1])  # content out of range
        with pytest.raises(ValueError, match="outside catalog"):
            sim.measure(inst, np.array([0, 0, 0, 2**32]))  # 0 once narrowed
        with pytest.raises(ValueError):
            sim.measure(inst, [0, 0, 0, 0], W=0.0)
        with pytest.raises(ValueError):
            sim.measure(inst, [0, 0, 0, 0], concentration_factor=0.0)


class TestRunTrials:
    def test_single_trial_equals_measure(self):
        cfg = NetworkConfig(n=300, alpha=0.8, beta=0.6, seed=4)
        counts = np.ones(cfg.M, dtype=np.int64)
        stats = sim.run_trials(cfg, counts)
        s = stats.seeds[0]
        inst_seed, req_seed = sim._trial_streams(s)
        inst = sim.build_instance(cfg, counts, inst_seed)
        reqs = sim.draw_requests(inst, cfg.popularity(), req_seed)
        meas = sim.measure(inst, reqs)
        got = stats.measurements[0]
        assert np.array_equal(got.lines_per_cell, meas.lines_per_cell)
        assert got.realized_delay == meas.realized_delay
        assert stats.mean_hops.mean == meas.mean_hops
        assert stats.mean_hops.stderr == 0.0

    def test_fixed_seed_list_is_bit_identical(self):
        cfg = NetworkConfig(n=300, alpha=0.8, beta=0.6)
        counts = np.ones(cfg.M, dtype=np.int64)
        s1 = sim.run_trials(cfg, counts, seeds=[11, 22, 33])
        s2 = sim.run_trials(cfg, counts, seeds=[11, 22, 33])
        assert s1.mean_hops == s2.mean_hops
        assert s1.realized_delay == s2.realized_delay
        assert s1.seeds == (11, 22, 33)

    def test_aggregate_consistency(self):
        cfg = NetworkConfig(n=300, alpha=0.8, beta=0.6, trials=5, seed=8)
        counts = np.ones(cfg.M, dtype=np.int64)
        stats = sim.run_trials(cfg, counts)
        assert stats.trials == 5 and len(stats.measurements) == 5
        hops = [m.mean_hops for m in stats.measurements]
        assert stats.mean_hops.min == min(hops)
        assert stats.mean_hops.max == max(hops)
        assert stats.mean_hops.mean == pytest.approx(np.mean(hops))
        assert stats.mean_hops.stderr > 0
        for rate in (
            stats.condition1_rate,
            stats.condition2_rate,
            stats.fallback_rate,
        ):
            assert 0.0 <= rate <= 1.0

    def test_default_seeds_derive_from_cfg_seed(self):
        cfg = NetworkConfig(n=300, alpha=0.8, beta=0.6, trials=3, seed=21)
        counts = np.ones(cfg.M, dtype=np.int64)
        stats = sim.run_trials(cfg, counts)
        want = np.random.SeedSequence(21).generate_state(3, dtype=np.uint64)
        assert stats.seeds == tuple(int(s) for s in want)
        assert stats.trials == 3
        again = sim.run_trials(cfg, counts, seeds=stats.seeds)
        assert again.mean_hops == stats.mean_hops

    def test_mean_hops_standard_error_is_small(self):
        cfg = NetworkConfig(n=10**4, alpha=0.8, beta=0.9, trials=32, seed=13)
        prob = cfg.problem()
        xi = round_to_integers(solve(prob), prob)
        stats = sim.run_trials(cfg, xi)
        assert stats.mean_hops.stderr <= 0.05 * stats.mean_hops.mean
