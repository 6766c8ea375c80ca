"""Cache-allocation solver: exact water-filling against first-order
oracles, KKT certificates, threshold structure, and rounding."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccnscale import alloc, cli
from ccnscale.alloc import AllocationProblem, solve
from ccnscale.config import Mode, NetworkConfig
from ccnscale.errors import InfeasibleError, SolverError, UnsupportedRegimeError
from ccnscale.popularity import from_weights, zipf

from oracles import kkt_residual_by_masks
from oracles import objective as oracle_objective
from oracles import random_instances, round_by_loop, solve_bisect, solve_spg

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Frozen output of the spectral-projected-gradient oracle (Barzilai-
# Borwein steps, nonmonotone line search, run to first-order tolerance
# 1e-12) for the instance zipf(M=12, alpha=1.2), n=40, K=1, a=1/25, f=0.
_SPG_FROZEN_X = [
    10.392445131120361,
    5.968892313278175,
    4.315396812710656,
    3.4282283907063413,
    2.867752960510853,
    2.478544609959314,
    2.190984515413065,
    1.9690001564786708,
    1.791941108769597,
    1.64709155413742,
    1.5261723887868066,
    1.4235500581287486,
]
_SPG_FROZEN_OBJECTIVE = 2.3186165202842313


def _spg(prob):
    return solve_spg(
        prob.pop.p, prob.a, prob.f, prob.lower, prob.upper, prob.budget
    )


class TestSolveExamples:
    def test_uniform_popularity_splits_budget_evenly(self):
        prob = AllocationProblem(pop=zipf(4, 0.0), n=8, K=1.0, a=1 / 16)
        res = solve(prob)
        np.testing.assert_allclose(res.X, [2.0, 2.0, 2.0, 2.0], rtol=1e-12)
        assert (res.m1, res.m2) == (1, 5)
        assert res.Kprime == pytest.approx(1.0)
        assert res.multiplier > 0

    def test_single_content_saturates_upper(self):
        prob = AllocationProblem(pop=zipf(1, 2.0), n=10, K=1.0, a=0.25)
        res = solve(prob)
        assert res.X.tolist() == [4.0]
        assert (res.m1, res.m2) == (2, 2)
        assert res.multiplier == 0.0
        assert alloc.optimized_delay(res, prob) == pytest.approx(1.0)

    def test_zipf_instance_matches_frozen_oracle(self):
        prob = AllocationProblem(pop=zipf(12, 1.2), n=40, K=1.0, a=1 / 25)
        res = solve(prob)
        assert np.max(np.abs(res.X - np.array(_SPG_FROZEN_X))) < 1e-6
        assert res.objective == pytest.approx(_SPG_FROZEN_OBJECTIVE, rel=1e-9)
        assert (res.m1, res.m2) == (1, 13)

    def test_infeasible_ad_hoc_budget(self):
        with pytest.raises(InfeasibleError):
            solve(AllocationProblem(pop=zipf(30, 1.0), n=20, K=1.0, a=1 / 16))

    def test_infeasible_degenerate_ad_hoc_budget(self):
        # a = 1 collapses the box to X = 1, which 63 contents cannot get
        # from a budget of 10.
        prob = AllocationProblem(zipf(63, 0.8), n=100, K=0.1, a=1.0)
        assert prob.degenerate
        with pytest.raises(InfeasibleError):
            solve(prob)

    def test_over_provisioned_budget_all_upper(self):
        prob = AllocationProblem(pop=zipf(3, 1.0), n=1000, K=1.0, a=1 / 9)
        res = solve(prob)
        np.testing.assert_allclose(res.X, [9.0, 9.0, 9.0], rtol=1e-12)
        assert (res.m1, res.m2) == (4, 4)
        assert res.multiplier == 0.0
        assert alloc.optimized_delay(res, prob) == pytest.approx(1.0)

    def test_degenerate_heterogeneous_box(self):
        # f = 1/a: base stations alone exceed one per cell, no room for
        # cached copies; all X at the floor, flagged.
        prob = AllocationProblem(
            pop=zipf(5, 1.0), n=100, K=1.0, a=1 / 16, f=16.0
        )
        assert prob.degenerate
        res = solve(prob)
        assert res.degenerate
        np.testing.assert_array_equal(res.X, np.zeros(5))
        assert (res.m1, res.m2) == (1, 1)
        assert res.multiplier == 0.0
        want = 1.0 / math.sqrt((1 / 16) * 16.0)
        assert alloc.optimized_delay(res, prob) == pytest.approx(want)

    def test_point_box_is_certified(self):
        # upper = lower = 0: every content sits at both bounds, which fix
        # it, so no stationarity condition applies.
        prob = AllocationProblem(
            pop=zipf(5, 1.0), n=100, K=1.0, a=1 / 16, f=16.0
        )
        assert prob.upper == prob.lower
        assert alloc.kkt_residual(solve(prob), prob) == 0.0

    def test_infeasible_empty_heterogeneous_box(self):
        # f = 501.2 base stations on 72.4 cells: upper = -428.8 < lower = 0.
        prob = NetworkConfig(
            n=1000, alpha=0.8, beta=0.9, mode=Mode.HETEROGENEOUS, mu=0.9
        ).problem()
        assert prob.upper < prob.lower
        with pytest.raises(InfeasibleError, match="empty box"):
            solve(prob)

    def test_rejects_non_monotone_popularity(self):
        model = zipf(3, 1.0)
        object.__setattr__(model, "p", np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValueError):
            solve(AllocationProblem(pop=model, n=10, K=2.0, a=1 / 9))


class TestOracleParity:
    def test_matches_spectral_projected_gradient(self):
        checked = 0
        for prob in random_instances(seed=2718, count=150):
            res = solve(prob)
            x_spg = _spg(prob)
            obj_spg = oracle_objective(x_spg, prob.pop.p, prob.a, prob.f)
            assert res.objective <= obj_spg + 1e-9 * abs(obj_spg)
            assert np.max(np.abs(res.X - x_spg)) < 1e-6
            checked += 1
        assert checked == 150

    def test_objective_is_never_above_feasible_points(self):
        rng = np.random.default_rng(7)
        for prob in random_instances(seed=42, count=40):
            res = solve(prob)
            span = prob.upper - prob.lower
            for _ in range(10):
                x = prob.lower + rng.random(prob.pop.m_count) * span
                excess = x.sum() - prob.budget
                if excess > 0:  # pull back into the budget
                    x = np.maximum(prob.lower, x - excess / len(x))
                    if x.sum() > prob.budget:
                        continue
                assert res.objective <= oracle_objective(
                    x, prob.pop.p, prob.a, prob.f
                ) + 1e-12


def _allocation(x, multiplier=0.0):
    """A hand-built allocation; only ``X`` and the multiplier enter the KKT
    residual."""
    return alloc.Allocation(
        X=np.array(x, dtype=np.float64), m1=1, m2=1, Kprime=0.0,
        multiplier=multiplier, objective=0.0,
    )


def _kkt_hand_built():
    """(problem, allocation) pairs that probe each branch of the certificate."""
    adhoc = AllocationProblem(pop=zipf(12, 1.2), n=40, K=1.0, a=1 / 25)
    solved = solve(adhoc)
    point_box = AllocationProblem(
        zipf(6, 1.2), n=40, K=1.0, a=1 / 25, f=25.0
    )
    one_content = AllocationProblem(pop=zipf(1, 1.0), n=4, K=1.0, a=1 / 4)
    # upper = 1e-13 lies inside the bound tolerance of lower = 0, so every
    # content counts as at both bounds although the box is not a point;
    # the budget is met, so only stationarity could make the residual
    # positive.
    thin_box = AllocationProblem(
        zipf(6, 1.2), n=1, K=6e-14, a=1 / 25, f=25.0 - 1e-13
    )
    below = solved.X.copy()
    below[-1] = 0.5  # under lower = 1
    above = solved.X.copy()
    above[0] = adhoc.upper + 0.5
    big = AllocationProblem(pop=zipf(3 * 2**15 + 7, 0.8), n=200_000, K=1.0, a=1 / 40_000)
    big_solved = solve(big)
    big_off = big_solved.X.copy()
    big_off[2**15 + 3] = big.upper + 1.0  # above upper, in the second block
    big_off[-1] = 0.25  # below lower, in the last block
    lam = solved.multiplier
    # Uniform popularity: g depends on X alone, so X = 2 with the multiplier
    # g(2) meets stationarity and a block's residual comes from its own
    # entries.  upper = 4, lower = 1; the second block is set by hand.
    flat = AllocationProblem(pop=zipf(3 * 2**15 + 7, 0.0), n=200_000, K=1.0, a=1 / 4)
    flat_lam = float(flat.pop.p[0] / (2.0 * math.sqrt(flat.a) * 2.0**1.5))

    def flat_x(second_block):
        x = np.full(flat.pop.m_count, 2.0)
        x[2**15 : 2**16] = second_block
        return x

    mixed = flat_x(np.resize([flat.lower, 2.0, flat.upper], 2**15))
    mixed[2**15 + 4] = -0.5  # below -f = 0, between entries at both bounds
    return {
        "solved": (adhoc, solved),
        "point box": (point_box, _allocation(np.zeros(6))),
        "point box, positive multiplier": (point_box, _allocation(np.zeros(6), 0.3)),
        "content at both bounds": (thin_box, _allocation(np.full(6, 1e-14), 0.3)),
        "over budget": (adhoc, _allocation(np.full(12, adhoc.upper))),
        "X below lower": (adhoc, _allocation(below, lam)),
        "X above upper": (adhoc, _allocation(above, lam)),
        "interior off the multiplier": (adhoc, _allocation(solved.X, 1.5 * lam)),
        "empty X": (one_content, _allocation([])),
        "empty X, positive multiplier": (one_content, _allocation([], 0.5)),
        "solved, several blocks": (big, big_solved),
        "several blocks, off the box": (big, _allocation(big_off, big_solved.multiplier)),
        "a block entirely interior": (
            flat, _allocation(flat_x(np.linspace(1.5, 3.5, 2**15)), flat_lam)
        ),
        "a block entirely at the lower bound": (
            flat, _allocation(flat_x(flat.lower), flat_lam)
        ),
        "a block entirely at the upper bound": (
            flat, _allocation(flat_x(flat.upper), flat_lam)
        ),
        "below -f beside entries at both bounds": (flat, _allocation(mixed, flat_lam)),
    }


class TestKkt:
    def test_same_value_as_masked_form_on_solved_instances(self):
        problems = list(random_instances(seed=2718, count=200))
        problems += list(_sample_config_problems())
        for prob in problems:
            res = solve(prob)
            assert alloc.kkt_residual(res, prob) == kkt_residual_by_masks(res, prob)

    @pytest.mark.parametrize("name", list(_kkt_hand_built()))
    def test_same_value_as_masked_form_on_hand_built(self, name):
        prob, allocation = _kkt_hand_built()[name]
        want = kkt_residual_by_masks(allocation, prob)
        assert math.isfinite(want)
        assert alloc.kkt_residual(allocation, prob) == want

    def test_nan_in_a_later_block_gives_nan(self):
        prob, solved = _kkt_hand_built()["solved, several blocks"]
        x = solved.X.copy()
        x[2**15 + 3] = math.nan  # in the second block
        bad = _allocation(x, solved.multiplier)
        assert math.isnan(kkt_residual_by_masks(bad, prob))
        assert math.isnan(alloc.kkt_residual(bad, prob))

    def test_over_budget_allocation_fails_certificate(self):
        # Every content at upper = 25 with multiplier 0 meets every
        # stationarity condition, but uses 300 of a budget of 40.
        prob = AllocationProblem(pop=zipf(12, 1.2), n=40, K=1.0, a=1 / 25)
        bad = _allocation(np.full(12, prob.upper))
        assert alloc.kkt_residual(bad, prob) == (300 - 40) / 40
        with pytest.raises(SolverError, match="optimality certificate failed"):
            alloc._verify_kkt(bad, prob)

    def test_allocation_outside_the_box_fails_certificate(self):
        # Over-provisioned (budget 200 for 4 contents capped at 25): X =
        # upper is optimal with multiplier 0, and one content above the
        # cap breaks only the box.
        prob = AllocationProblem(pop=zipf(4, 1.0), n=200, K=1.0, a=1 / 25)
        assert alloc.kkt_residual(_allocation([25.0] * 4), prob) == 0.0
        above = _allocation([25.5, 25.0, 25.0, 25.0])
        assert alloc.kkt_residual(above, prob) == 0.5 / 25
        # Content 0 interior at the multiplier, content 1 half a holder
        # below lower = 1 with a smaller gradient, the budget of 10 met.
        prob = AllocationProblem(pop=zipf(2, 10.0), n=10, K=1.0, a=1 / 25)
        x = np.array([9.5, 0.5])
        lam = float(prob.pop.p[0] / (2.0 * math.sqrt(prob.a) * (x[0] + prob.f) ** 1.5))
        assert alloc.kkt_residual(_allocation(x, lam), prob) == 0.5 / 25

    def test_allocation_below_minus_f_fails_certificate(self):
        # X_3 + f = -1 has no gradient: the certificate reports the box
        # violation (2 below lower = 1) instead of NaN, and a NaN X fails.
        prob = AllocationProblem(pop=zipf(4, 1.0), n=10, K=1.0, a=1 / 25)
        bad = _allocation([5.0, 3.0, 3.0, -1.0])
        res = alloc.kkt_residual(bad, prob)
        assert math.isfinite(res) and res >= 2 / 25
        for x in (bad, _allocation([5.0, 3.0, 3.0, math.nan])):
            with pytest.raises(SolverError, match="optimality certificate failed"):
                alloc._verify_kkt(x, prob)

    def test_residual_small_on_random_instances(self):
        for prob in random_instances(seed=1618, count=200):
            res = solve(prob)
            if res.degenerate:
                continue
            assert alloc.kkt_residual(res, prob) <= 1e-8

    def test_failed_certificate_raises_solver_error(self, monkeypatch):
        monkeypatch.setattr(alloc, "_KKT_TOL", -1.0)
        prob = AllocationProblem(pop=zipf(12, 1.2), n=40, K=1.0, a=1 / 25)
        with pytest.raises(SolverError, match="optimality certificate failed"):
            solve(prob)
        assert issubclass(SolverError, ArithmeticError)

    def test_interior_gradient_equals_multiplier(self):
        prob = AllocationProblem(pop=zipf(12, 1.2), n=40, K=1.0, a=1 / 25)
        res = solve(prob)
        p = prob.pop.p
        grad = p / (2.0 * math.sqrt(prob.a) * (res.X + prob.f) ** 1.5)
        interior = slice(res.m1 - 1, res.m2 - 1)
        np.testing.assert_allclose(grad[interior], res.multiplier, rtol=1e-10)


class TestStructure:
    def test_three_regime_shape_and_bounds(self):
        for prob in random_instances(seed=31415, count=150):
            res = solve(prob)
            X = res.X
            tol = 1e-9 * max(1.0, prob.upper)
            assert np.all(X >= prob.lower - tol)
            assert np.all(X <= prob.upper + tol)
            assert X.sum() <= prob.budget * (1 + 1e-9)
            assert np.all(np.diff(X) <= tol)  # non-increasing
            m1, m2 = res.m1, res.m2
            assert 1 <= m1 <= m2 <= prob.pop.m_count + 1
            np.testing.assert_allclose(X[: m1 - 1], prob.upper, rtol=1e-9)
            if m2 <= prob.pop.m_count:
                np.testing.assert_allclose(
                    X[m2 - 1 :], prob.lower, atol=1e-9 * max(1.0, prob.upper)
                )
            interior = X[m1 - 1 : m2 - 1]
            if interior.size:
                assert np.all(interior > prob.lower - tol)
                assert np.all(interior < prob.upper + tol)

    def test_budget_exact_when_multiplier_positive(self):
        for prob in random_instances(seed=999, count=80):
            res = solve(prob)
            if res.multiplier > 0:
                assert res.X.sum() == pytest.approx(prob.budget, rel=1e-9)

    def test_objective_monotone_in_cache_size(self):
        pop = zipf(20, 1.1)
        objs = [
            solve(AllocationProblem(pop=pop, n=100, K=k, a=1 / 36)).objective
            for k in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_objective_monotone_in_base_stations(self):
        pop = zipf(20, 1.1)
        objs = [
            solve(
                AllocationProblem(pop=pop, n=100, K=1.0, a=1 / 36, f=f)
            ).objective
            for f in (1.0, 2.0, 5.0, 10.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_weight_scale_invariance(self):
        w = [5.0, 3.0, 2.0, 1.5, 0.5]
        prob1 = AllocationProblem(pop=from_weights(w), n=30, K=1.0, a=1 / 16)
        prob2 = AllocationProblem(
            pop=from_weights([173.0 * v for v in w]), n=30, K=1.0, a=1 / 16
        )
        np.testing.assert_allclose(solve(prob1).X, solve(prob2).X, rtol=1e-12)


class TestInteriorRatio:
    def test_alpha_three_matches_predicted_order(self):
        # Order prediction: m1/m2 ~ a^{3/(2 alpha)} = (1/64)^{0.5} = 1/8.
        prob = AllocationProblem(pop=zipf(100, 3.0), n=8000, K=0.1, a=1 / 64)
        res = solve(prob)
        assert 1 < res.m1 <= res.m2 <= 100
        ratio = alloc.interior_ratio(prob)
        assert 0.5 <= ratio <= 2.0

    def test_band_is_stable_across_n(self):
        # Catalog grows with n so the three-regime structure persists.
        ratios = [
            alloc.interior_ratio(
                AllocationProblem(
                    pop=zipf(n // 16, 2.0), n=n, K=0.2, a=1 / 100
                )
            )
            for n in (4000, 8000, 16000, 32000)
        ]
        assert max(ratios) / min(ratios) < 2.0

    def test_degenerate_rejected(self):
        prob = AllocationProblem(
            pop=zipf(5, 1.5), n=100, K=1.0, a=1 / 16, f=16.0
        )
        with pytest.raises(UnsupportedRegimeError):
            alloc.interior_ratio(prob)

    def test_non_zipf_rejected(self):
        prob = AllocationProblem(
            pop=from_weights([3.0, 2.0, 1.0]), n=30, K=1.0, a=1 / 16
        )
        with pytest.raises(UnsupportedRegimeError):
            alloc.interior_ratio(prob)

    def test_missing_structure_rejected(self):
        # Abundant budget saturates everything: no interior region.
        prob = AllocationProblem(pop=zipf(3, 1.5), n=1000, K=1.0, a=1 / 9)
        with pytest.raises(UnsupportedRegimeError):
            alloc.interior_ratio(prob)


class TestOptimizedDelay:
    def test_equals_direct_sum_on_spec_instance(self):
        n = 10**4
        a = 2 * math.log(n) / n
        prob = AllocationProblem(pop=zipf(100, 0.8), n=n, K=1.0, a=a)
        res = solve(prob)
        direct = float(
            np.sum(prob.pop.p * np.maximum(1.0, 1.0 / np.sqrt(a * res.X)))
        )
        assert alloc.optimized_delay(res, prob) == pytest.approx(direct, rel=1e-6)

    def test_equals_direct_sum_on_random_instances(self):
        for prob in random_instances(seed=5150, count=100):
            res = solve(prob)
            direct = float(
                np.sum(
                    prob.pop.p
                    * np.maximum(1.0, 1.0 / np.sqrt(prob.a * (res.X + prob.f)))
                )
            )
            assert alloc.optimized_delay(res, prob) == pytest.approx(
                direct, rel=1e-6
            )

    def test_size_mismatch_rejected(self):
        prob_a = AllocationProblem(pop=zipf(4, 0.0), n=8, K=1.0, a=1 / 16)
        prob_b = AllocationProblem(pop=zipf(5, 0.0), n=10, K=1.0, a=1 / 16)
        res = solve(prob_a)
        with pytest.raises(ValueError):
            alloc.optimized_delay(res, prob_b)


class TestRounding:
    def test_integer_allocation_unchanged(self):
        prob = AllocationProblem(pop=zipf(4, 0.0), n=8, K=1.0, a=1 / 16)
        res = solve(prob)
        assert alloc.round_to_integers(res, prob).tolist() == [2, 2, 2, 2]

    def test_equal_remainders_tie_by_index(self):
        prob = AllocationProblem(pop=zipf(4, 0.0), n=10, K=1.0, a=1 / 16)
        res = solve(prob)
        np.testing.assert_allclose(res.X, [2.5] * 4, rtol=1e-12)
        assert alloc.round_to_integers(res, prob).tolist() == [3, 3, 2, 2]

    def test_fuzz_rounding_preserves_feasibility(self):
        for prob in random_instances(seed=8080, count=300):
            res = solve(prob)
            xi = alloc.round_to_integers(res, prob)
            assert xi.dtype == np.int64
            assert np.all(np.abs(xi - res.X) <= 1.0 + 1e-12)
            assert xi.sum() <= math.floor(prob.budget) + 1e-9
            assert np.all(xi >= math.floor(prob.lower))
            assert np.all(xi <= prob.upper + 1e-12)

    @staticmethod
    def _assert_same_as_loop(x, prob):
        got = alloc.round_to_integers(_allocation(x), prob)
        want = round_by_loop(x, prob.budget, prob.upper)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_matches_loop_on_solved_problems(self):
        for prob in random_instances(seed=8181, count=300):
            self._assert_same_as_loop(solve(prob).X, prob)

    def test_matches_loop_on_random_arrays(self):
        # Arbitrary X, not only optima: entries at, above and below the cap,
        # integers among them, and budgets that leave room for none, some or
        # all of the remainders.
        rng = np.random.default_rng(9)
        for _ in range(300):
            m = int(rng.integers(1, 40))
            prob = AllocationProblem(
                pop=zipf(m, 1.0), n=int(rng.integers(1, 400)),
                K=float(rng.uniform(0.05, 2.0)), a=1 / 16,
            )
            x = rng.uniform(0.0, 17.0, size=m)
            whole = rng.random(m) < 0.2
            x[whole] = np.floor(x[whole])
            x[rng.random(m) < 0.2] = prob.upper - 0.5
            self._assert_same_as_loop(x, prob)

    @pytest.mark.parametrize("n", [16, 17, 18, 19, 20, 21, 40])
    def test_matches_loop_on_tied_remainders(self, n):
        # Remainders tie in groups, so the lowest index breaks each tie; one
        # tied entry sits at upper - 0.5 = 15.5 and cannot rise.
        prob = AllocationProblem(pop=zipf(8, 1.0), n=n, K=1.0, a=1 / 16)
        x = np.array([2.5, 1.25, 2.5, 15.5, 1.25, 0.5, 3.0, 0.5])
        self._assert_same_as_loop(x, prob)

    @pytest.mark.parametrize("n", [1, 10, 25, 26])
    def test_no_room_leaves_the_floor(self, n):
        # floor(X) sums to 26, so a budget of at most 26 leaves room <= 0:
        # every entry keeps its floor.
        prob = AllocationProblem(pop=zipf(4, 1.0), n=n, K=1.0, a=1 / 16)
        x = np.array([10.75, 8.5, 6.25, 2.9])
        self._assert_same_as_loop(x, prob)
        got = alloc.round_to_integers(_allocation(x), prob)
        assert got.tolist() == [10, 8, 6, 2]


class TestProblemValidation:
    def test_floor_follows_base_stations(self):
        prob = AllocationProblem(zipf(3, 1.0), n=10, K=1.0, a=1 / 9)
        assert prob.f == 0.0
        assert prob.lower == 1.0
        assert prob.upper == 9.0
        assert prob.budget == 10.0
        for f in (1.0, 2.5):
            assert AllocationProblem(zipf(3, 1.0), 10, 1.0, 1 / 9, f).lower == 0.0
        with pytest.raises(AttributeError):
            prob.lower = 0.0  # derived from f, not set

    def test_rejects_a_fraction_of_a_base_station(self):
        for f in (0.5, 1e-12, 1.0 - 1e-12, math.nan):
            with pytest.raises(ValueError, match="must be 0 or >= 1"):
                AllocationProblem(zipf(3, 1.0), n=10, K=1.0, a=1 / 9, f=f)

    def test_field_validation(self):
        pop = zipf(3, 1.0)
        with pytest.raises(ValueError):
            AllocationProblem(pop=pop, n=0, K=1.0, a=1 / 9)
        with pytest.raises(ValueError):
            AllocationProblem(pop=pop, n=10, K=0.0, a=1 / 9)
        with pytest.raises(ValueError):
            AllocationProblem(pop=pop, n=10, K=1.0, a=1.5)
        with pytest.raises(ValueError):
            AllocationProblem(pop=pop, n=10, K=1.0, a=1 / 9, f=-1.0)
        with pytest.raises(TypeError):
            # the floor follows from f and is not an argument
            AllocationProblem(pop=pop, n=10, K=1.0, a=1 / 9, lower=0.5)


def _sample_config_problems():
    """The allocation problem of every point of the sample configs."""
    for path in sorted(_CONFIGS.glob("*.conf")):
        cfg = cli.parse_config(str(path))
        for index, point in enumerate(cfg.points()):
            yield cli._point_problem(index, point, cfg.values)[1]


def _bisection_path(prob):
    """True when the old solver reached its bisection for this problem."""
    return not prob.degenerate and prob.pop.m_count * prob.upper > prob.budget


def _assert_same_as_bisection(prob):
    res = solve(prob)
    x, m1, m2, multiplier = solve_bisect(prob)
    assert (res.m1, res.m2) == (m1, m2)
    assert res.multiplier == multiplier
    assert np.array_equal(res.X, x)


def _tie_problem(pop, n, a, f, m, at_upper):
    """Budget at which content m (0-based) sits exactly on a bound."""
    box = AllocationProblem(pop=pop, n=n, K=1.0, a=a, f=f)
    lower, upper = box.lower, box.upper
    q = pop.p ** (2.0 / 3.0)
    c = ((upper if at_upper else lower) + f) / q[m]
    budget = math.fsum(np.clip(c * q - f, lower, upper))
    return dataclasses.replace(box, K=budget / n)


# (problem, new (m1, m2) where the bisection's differ, else None).  At an
# exact tie the bisection classified the tied content by the side of the
# breakpoint its last midpoint fell on; the one-pass solver keeps it at
# the bound.  Both solutions carry a KKT certificate.
_TIES = {
    "adhoc, content 1 at upper": (
        _tie_problem(zipf(12, 1.2), 40, 1 / 25, 0.0, 0, True),
        None,
    ),
    "adhoc, content 3 at upper": (
        _tie_problem(zipf(12, 1.2), 40, 1 / 25, 0.0, 2, True),
        (4, 13),
    ),
    "adhoc, content 10 at lower": (
        _tie_problem(zipf(30, 2.0), 100, 1 / 36, 0.0, 9, False),
        (1, 10),
    ),
    "heterogeneous, content 5 at lower": (
        _tie_problem(zipf(20, 1.1), 100, 1 / 36, 4.0, 4, False),
        None,
    ),
    "heterogeneous, content 2 at upper": (
        _tie_problem(zipf(20, 1.1), 100, 1 / 36, 4.0, 1, True),
        None,
    ),
    "tied popularity, group at upper": (
        _tie_problem(from_weights([3, 3, 3, 1, 1]), 10, 1 / 9, 0.0, 2, True),
        None,
    ),
    "tied popularity, group at lower": (
        _tie_problem(from_weights([4, 2, 2, 2, 1]), 10, 1 / 9, 2.0, 3, False),
        None,
    ),
    "adhoc, budget exactly M * lower": (
        AllocationProblem(pop=zipf(10, 1.0), n=10, K=1.0, a=1 / 16),
        (1, 1),
    ),
}


class TestMatchesBisection:
    """The one-pass water level returns what the 200-step bisection did."""

    def test_random_instances(self):
        checked = 0
        for seed in range(12):
            for prob in random_instances(seed=seed, count=200):
                if _bisection_path(prob):
                    _assert_same_as_bisection(prob)
                    checked += 1
        assert checked > 500

    def test_every_sample_config_point(self):
        problems = [p for p in _sample_config_problems() if _bisection_path(p)]
        assert len(problems) == 71
        for prob in problems:
            _assert_same_as_bisection(prob)

    @pytest.mark.parametrize("name", list(_TIES))
    def test_hand_built_ties(self, name):
        prob, moved = _TIES[name]
        if moved is None:
            _assert_same_as_bisection(prob)
            return
        res = solve(prob)
        x, m1, m2, _ = solve_bisect(prob)
        assert (res.m1, res.m2) == moved != (m1, m2)
        assert alloc.kkt_residual(res, prob) <= 1e-8
        # The bisection stopped within 1e-9 of the budget, on either side.
        assert np.max(np.abs(res.X - x)) <= 1e-8 * prob.upper
        assert res.objective == pytest.approx(
            oracle_objective(x, prob.pop.p, prob.a, prob.f), rel=1e-8
        )

    def test_optimized_delay_equals_three_fsum_form(self):
        # The optimum's value and the delay are one number, bit for bit.
        problems = list(random_instances(seed=5150, count=100))
        problems += list(_sample_config_problems())
        problems += [prob for prob, _ in _TIES.values()]
        point_box = AllocationProblem(
            zipf(6, 1.2), n=40, K=1.0, a=1 / 25, f=25.0
        )
        problems += [
            point_box,
            AllocationProblem(pop=zipf(10, 1.0), n=100, K=50.0, a=1 / 16),
            AllocationProblem(
                zipf(10, 1.0), n=100, K=50.0, a=1 / 16, f=3.0
            ),
        ]
        assert point_box.degenerate
        assert not any(_bisection_path(prob) for prob in problems[-2:])
        for prob in problems:
            res = solve(prob)
            p = prob.pop.p
            m1, m2 = res.m1, res.m2
            want = math.fsum(p[: m1 - 1])
            if m2 > m1:
                s_interior = math.fsum(p[m1 - 1 : m2 - 1] ** (2.0 / 3.0))
                want += s_interior**1.5 / math.sqrt(prob.n * res.Kprime * prob.a)
            want += math.fsum(p[m2 - 1 :]) / math.sqrt(
                prob.a * (prob.lower + prob.f)
            )
            assert res.objective == want
            assert alloc.optimized_delay(res, prob) == want


# Zeros, subnormals, negatives and exponents over 2000 binades; capped at
# 2**1000 so that no sum of 60 overflows.
_SPREAD_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0]),
    st.floats(min_value=-(2.0**900), max_value=2.0**900),
    st.builds(
        math.ldexp, st.floats(min_value=-1.0, max_value=1.0), st.integers(-1100, 1000)
    ),
)


def _exponent_runs():
    """Arrays whose runs of equal exponent probe ``_fsum``'s run sums."""
    block = alloc._BLOCK
    rng = np.random.default_rng(23)
    # Full 53-bit mantissas in [1, 2), so every run sum carries both halves.
    ones = np.sort(rng.uniform(1.0, 2.0, size=3 * block + 11))[::-1]
    across = np.concatenate([
        np.ldexp(ones[: block - 50], 4),
        ones[:100],  # one exponent from block - 50 to block + 50
        np.ldexp(ones[:block], -3),
    ])
    every = np.ldexp(
        rng.uniform(0.5, 1.0, size=block + 5), np.arange(block + 5) % 7 - 3
    )
    subnormal = np.concatenate([
        np.ldexp(
            rng.uniform(-1.0, 1.0, size=5000), rng.integers(-1100, -1015, size=5000)
        ),
        np.full(300, 5e-324),
        np.geomspace(2.0**-1022, 5e-324, 2000),  # every subnormal binade, in order
    ])
    half = rng.uniform(-1.0, 1.0, size=block + 9) * 2.0 ** rng.integers(
        -40, 40, size=block + 9
    )
    cancel = np.concatenate([half, -half])
    rng.shuffle(cancel)
    return {
        "run across a block boundary": across,
        "run longer than a block": ones,
        "new exponent on every element": every,
        "one element per exponent": np.ldexp(0.75, np.arange(-1000, 1001)),
        "subnormals": subnormal,
        "mixed signs summing to zero": cancel,
    }


class TestFsum:
    """``_fsum`` is correctly rounded, so it returns math.fsum's bits."""

    @given(st.lists(_SPREAD_FLOATS, max_size=60))
    @settings(max_examples=400, deadline=None)
    def test_matches_math_fsum(self, xs):
        # For finite non-zero floats == is bit equality; the sign of a
        # zero sum is not compared.
        assert alloc._fsum(np.array(xs, dtype=np.float64)) == math.fsum(xs)

    @pytest.mark.parametrize(
        "xs",
        [
            [],
            [0.0],
            [-0.0],
            [5e-324],
            [-3.5],
            [5e-324, 5e-324, -5e-324],
            [2.0**-1022, -(2.0**-1074)],
            [1.0, 2.0**-53],  # halfway: ties to even, stays 1.0
            [1.0 + 2.0**-52, 2.0**-53],  # halfway: ties to even, rounds up
            [1.0, 2.0**-53, 5e-324],  # just above halfway
            [2.0**1000, 1.0, 2.0**-1000, -(2.0**1000)],
            [2.0**1000, 2.0**-1074, -(2.0**1000), 2.0**-1074],
        ],
    )
    def test_edge_cases(self, xs):
        assert alloc._fsum(np.array(xs, dtype=np.float64)) == math.fsum(xs)

    def test_zipf_slices(self):
        rng = np.random.default_rng(11)
        for m_count, alpha in ((20_000, 0.8), (5000, 1.2), (3000, 0.0)):
            q = zipf(m_count, alpha).p ** (2.0 / 3.0)
            for _ in range(40):
                lo, hi = sorted(rng.integers(0, m_count + 1, size=2))
                assert alloc._fsum(q[lo:hi]) == math.fsum(q[lo:hi])

    def test_non_finite_input_behaves_like_math_fsum(self):
        assert alloc._fsum(np.array([1.0, math.inf])) == math.inf
        assert math.isnan(alloc._fsum(np.array([1.0, math.nan])))
        with pytest.raises(ValueError):
            alloc._fsum(np.array([math.inf, -math.inf]))

    @pytest.mark.parametrize(
        "length",
        [alloc._BLOCK - 1, alloc._BLOCK, alloc._BLOCK + 1, 3 * alloc._BLOCK + 17],
    )
    def test_block_boundaries(self, length):
        # Mantissas in (-1, 1) over exponents -1070..970, about 2000
        # binades in every block; the blocks of the longest array are
        # each shifted by their own offset, so their smallest exponents
        # differ and the partials are combined at different bases.
        rng = np.random.default_rng(length)
        exps = rng.integers(-1070, 971, size=length)
        exps += (np.arange(length) // alloc._BLOCK) * 30 - 90
        xs = np.ldexp(rng.uniform(-1.0, 1.0, size=length), exps)
        assert alloc._fsum(xs) == math.fsum(xs)
        # Cancellation across blocks: the exact sum is the last element.
        mirrored = np.concatenate([xs, -xs[::-1], [0.75]])
        assert alloc._fsum(mirrored) == math.fsum(mirrored) == 0.75

    @pytest.mark.parametrize("name", list(_exponent_runs()))
    def test_exponent_runs(self, name):
        xs = _exponent_runs()[name]
        assert alloc._fsum(xs) == math.fsum(xs)
        if name == "mixed signs summing to zero":
            assert alloc._fsum(xs) == 0.0

    def test_largest_sample_catalog(self):
        # p and p^(2/3) at the largest sample catalog, n = 10**6 and
        # beta = 0.9, for each alpha of the sample configs.
        alphas = set()
        for path in _CONFIGS.glob("*.conf"):
            alphas.update(cli.parse_config(str(path)).values["alpha"])
        assert len(alphas) >= 5
        for alpha in sorted(alphas):
            p = zipf(251_189, alpha).p
            for xs in (p, p ** (2.0 / 3.0)):
                assert alloc._fsum(xs) == math.fsum(xs)

    def test_non_finite_value_in_a_later_block(self):
        xs = np.linspace(1.0, 2.0, 3 * alloc._BLOCK)
        for bad, check in ((math.inf, math.isinf), (math.nan, math.isnan)):
            ys = xs.copy()
            ys[2 * alloc._BLOCK + 5] = bad
            assert check(alloc._fsum(ys)) and check(math.fsum(ys))
        ys = xs.copy()
        ys[7] = math.inf
        ys[2 * alloc._BLOCK + 5] = -math.inf
        with pytest.raises(ValueError):
            alloc._fsum(ys)


class TestMemory:
    """Catalog-sized arrays held at once on the theory path, at the largest
    sample-config catalog: n = 10**6, alpha = 0.8, M = 251,189."""

    # Interpreter objects (the model, the allocation, block temporaries)
    # on top of the arrays; a catalog-sized float64 array is 2 MB.
    _SLACK = 1 << 16

    @staticmethod
    def _peak(fn):
        """Peak traced bytes above the start while ``fn`` runs."""
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def _config(self):
        cfg = NetworkConfig(n=10**6, alpha=0.8, beta=0.9)
        assert cfg.M == 251_189
        return cfg

    def test_zipf_holds_one_array(self):
        # p, and the one-byte-per-content mask of the model's monotonicity
        # check; a Zipf model keeps no ``order`` array.
        cfg = self._config()
        assert self._peak(lambda: zipf(cfg.M, cfg.alpha)) <= 9 * cfg.M + self._SLACK

    def test_solve_and_certificate_hold_four_arrays(self):
        cfg = self._config()
        prob = cfg.problem()

        def run():
            res = solve(prob)
            alloc.kkt_residual(res, prob)
            alloc.optimized_delay(res, prob)

        assert self._peak(run) <= 4 * 8 * cfg.M + self._SLACK
