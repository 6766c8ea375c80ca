"""Closed-form scaling predictions: branch formulas, the
throughput-delay tradeoff identity, log-log slopes, and agreement with
the exact optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccnscale.alloc import AllocationProblem, optimized_delay, solve
from ccnscale.errors import UnsupportedRegimeError
from ccnscale.popularity import ZipfRegime, zipf, zipf_regime
from ccnscale.scaling import (
    ScalingRegime,
    default_cell_area,
    expected_hops,
    improvement_threshold,
    improves_order,
    m1_m2_orders,
    predicted_delay_order,
    predicted_throughput_order,
)

_NS = [10**3, 10**4, 10**5, 10**6]


def _slope(ns, ys):
    """Least-squares log-log slope."""
    return float(np.polyfit(np.log(ns), np.log(ys), 1)[0])


def _delay_slope(reg, ns=None):
    ns = ns or np.geomspace(10**3, 10**6, 13).round().astype(int).tolist()
    return _slope(ns, [predicted_delay_order(reg, n) for n in ns])


class TestDefaultCellArea:
    def test_value(self):
        assert default_cell_area(100) == pytest.approx(
            2 * math.log(100) / 100, rel=1e-15
        )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            default_cell_area(1)


class TestExpectedHops:
    def test_floor_at_one(self):
        assert expected_hops(1.0, 4.0) == 1.0

    def test_inverse_sqrt_regime(self):
        assert expected_hops(0.01, 4.0) == pytest.approx(5.0, rel=1e-15)
        assert expected_hops(0.25, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_base_stations_add_holders(self):
        assert expected_hops(0.01, 0.0, f=4.0) == pytest.approx(5.0, rel=1e-15)
        assert expected_hops(0.01, 2.0, f=2.0) == pytest.approx(5.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_hops(0.0, 1.0)
        with pytest.raises(ValueError):
            expected_hops(1.5, 1.0)
        with pytest.raises(ValueError):
            expected_hops(0.01, 0.0)


class TestScalingRegime:
    def test_defaults_and_accessors(self):
        reg = ScalingRegime(alpha=0.8, beta=0.9)
        n = 10**4
        assert reg.a(n) == default_cell_area(n)
        assert reg.M(n) == pytest.approx(n**0.9, rel=1e-15)
        assert reg.f(n) == 0.0
        assert not reg.heterogeneous

    def test_heterogeneous_accessors(self):
        reg = ScalingRegime(alpha=0.8, beta=0.9, mu=0.4)
        assert reg.heterogeneous
        assert reg.f(10**6) == pytest.approx(10**2.4, rel=1e-15)

    def test_cell_area_override(self):
        reg = ScalingRegime(alpha=0.8, beta=0.9, cell_area=lambda n: 4 / n)
        assert reg.a(64) == pytest.approx(1 / 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingRegime(alpha=-0.1, beta=0.9)
        with pytest.raises(ValueError):
            ScalingRegime(alpha=1.0, beta=0.0)
        with pytest.raises(ValueError):
            ScalingRegime(alpha=1.0, beta=0.9, K=0.0)
        with pytest.raises(ValueError):
            ScalingRegime(alpha=1.0, beta=0.9, mu=1.0)
        with pytest.raises(ValueError):
            ScalingRegime(alpha=1.0, beta=0.9, mu=-0.1)
        with pytest.raises(ValueError):
            # without base stations the caches must fit the catalog
            ScalingRegime(alpha=1.0, beta=1.0)

    def test_beta_above_one_needs_base_stations(self):
        reg = ScalingRegime(alpha=1.0, beta=1.2, mu=0.4)
        assert reg.M(10) == pytest.approx(10**1.2)

    def test_heterogeneous_rejects_cell_area_override(self):
        with pytest.raises(UnsupportedRegimeError):
            ScalingRegime(alpha=1.0, beta=0.9, mu=0.4, cell_area=lambda n: 4 / n)

    def test_tail_reaches_floor(self):
        n = 10**6
        # ad hoc allocations always end at the floor
        assert ScalingRegime(alpha=0.8, beta=0.9).tail_reaches_floor(n)
        # alpha <= 3/2: need beta >= 1 - mu
        assert ScalingRegime(alpha=0.8, beta=0.9, mu=0.4).tail_reaches_floor(n)
        assert not ScalingRegime(
            alpha=0.8, beta=0.9, mu=0.05
        ).tail_reaches_floor(n)
        # alpha > 3/2: need beta > (3/(2 alpha)) (1 - mu)
        assert ScalingRegime(alpha=2.0, beta=0.9, mu=0.4).tail_reaches_floor(n)
        assert not ScalingRegime(
            alpha=2.0, beta=0.7, mu=0.05
        ).tail_reaches_floor(n)

    def test_labels(self):
        assert ScalingRegime(alpha=0.8, beta=0.9).label() == "adhoc:alpha<1"
        assert ScalingRegime(alpha=1.5, beta=0.9).label() == "adhoc:alpha=3/2"
        assert (
            ScalingRegime(alpha=0.8, beta=0.9, mu=0.4).label()
            == "het:floored-tail:alpha<1"
        )
        assert (
            ScalingRegime(alpha=0.8, beta=0.9, mu=0.05).label()
            == "het:adhoc-like:alpha<1"
        )


class TestDelayBranches:
    def test_steep_popularity_is_constant(self):
        reg = ScalingRegime(alpha=2.0, beta=0.9)
        for n in _NS:
            assert predicted_delay_order(reg, n) == 1.0

    def test_flat_popularity_sqrt_branch(self):
        reg = ScalingRegime(alpha=0.8, beta=0.9)
        for n in _NS:
            M, na = n**0.9, n * default_cell_area(n)
            assert predicted_delay_order(reg, n) == pytest.approx(
                math.sqrt(M / na), rel=1e-15
            )

    def test_intermediate_power_branch(self):
        reg = ScalingRegime(alpha=1.2, beta=0.9)
        for n in _NS:
            M, na = n**0.9, n * default_cell_area(n)
            assert predicted_delay_order(reg, n) == pytest.approx(
                M**0.3 / math.sqrt(na), rel=1e-15
            )

    def test_critical_log_branches(self):
        n = 10**6
        M, na = n**0.9, n * default_cell_area(n)
        reg15 = ScalingRegime(alpha=1.5, beta=0.9)
        assert predicted_delay_order(reg15, n) == pytest.approx(
            math.log(M) ** 1.5 / math.sqrt(na), rel=1e-15
        )
        reg1 = ScalingRegime(alpha=1.0, beta=0.9)
        assert predicted_delay_order(reg1, n) == pytest.approx(
            math.sqrt(M) / (math.log(M) * math.sqrt(na)), rel=1e-15
        )

    def test_floor_at_one_when_catalog_is_tiny(self):
        reg = ScalingRegime(alpha=1.2, beta=0.1)
        assert predicted_delay_order(reg, 1000) == 1.0

    def test_heterogeneous_flat_branch_frozen(self):
        reg = ScalingRegime(alpha=0.8, beta=0.9, mu=0.4)
        n = 10**6
        d = predicted_delay_order(reg, n)
        assert d == pytest.approx(
            math.sqrt(n**0.6 / math.log(n)), rel=1e-15
        )
        assert d == pytest.approx(16.975263737641924, rel=1e-12)

    def test_heterogeneous_branches(self):
        n = 10**6
        f = n**0.4
        assert predicted_delay_order(
            ScalingRegime(alpha=2.0, beta=0.9, mu=0.4), n
        ) == pytest.approx(1.0)
        assert predicted_delay_order(
            ScalingRegime(alpha=1.5, beta=0.9, mu=0.4), n
        ) == pytest.approx(math.log(n), rel=1e-15)
        assert predicted_delay_order(
            ScalingRegime(alpha=1.2, beta=0.9, mu=0.4), n
        ) == pytest.approx((n / f) ** 0.3 / math.sqrt(math.log(n)), rel=1e-15)

    def test_weak_base_stations_fall_back_to_ad_hoc(self):
        het = ScalingRegime(alpha=0.8, beta=0.9, mu=0.05)
        adhoc = ScalingRegime(alpha=0.8, beta=0.9)
        for n in _NS:
            assert predicted_delay_order(het, n) == predicted_delay_order(
                adhoc, n
            )

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            predicted_delay_order(ScalingRegime(alpha=1.0, beta=0.9), 2)

    def test_rejects_collapsed_catalog(self):
        # beta so small the continuous catalog rounds to a single item
        reg = ScalingRegime(alpha=1.0, beta=1e-300)
        with pytest.raises(UnsupportedRegimeError):
            predicted_delay_order(reg, 3)


class TestTradeoffIdentity:
    def test_identity_over_grid(self):
        regs = [
            ScalingRegime(alpha=a, beta=b, mu=mu)
            for a in (0.5, 1.0, 1.2, 1.5, 2.5)
            for b in (0.5, 0.9)
            for mu in (None, 0.05, 0.4)
        ]
        for reg in regs:
            for n in _NS:
                d = predicted_delay_order(reg, n)
                lam = predicted_throughput_order(reg, n)
                na = n * reg.a(n)
                assert d * lam * na == pytest.approx(1.0, rel=1e-9)

    @given(
        alpha=st.floats(0.0, 3.0),
        beta=st.floats(0.05, 0.95),
        mu=st.one_of(st.none(), st.floats(0.0, 0.95)),
        n=st.integers(3, 10**7),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_property(self, alpha, beta, mu, n):
        reg = ScalingRegime(alpha=alpha, beta=beta, mu=mu)
        try:
            d = predicted_delay_order(reg, n)
        except UnsupportedRegimeError:
            return
        lam = predicted_throughput_order(reg, n)
        assert d > 0.0
        assert lam > 0.0
        assert d * lam * n * reg.a(n) == pytest.approx(1.0, rel=1e-9)


class TestSlopes:
    def test_flat_popularity_slope(self):
        assert _delay_slope(ScalingRegime(alpha=0.8, beta=0.9)) == pytest.approx(
            0.45, abs=0.1
        )

    def test_intermediate_slope(self):
        assert _delay_slope(ScalingRegime(alpha=1.2, beta=0.9)) == pytest.approx(
            0.27, abs=0.1
        )

    def test_throughput_slope_mirrors_delay(self):
        ns = np.geomspace(10**3, 10**6, 13).round().astype(int).tolist()
        for alpha in (0.8, 1.2):
            reg = ScalingRegime(alpha=alpha, beta=0.9)
            s_d = _slope(ns, [predicted_delay_order(reg, n) for n in ns])
            s_t = _slope(ns, [predicted_throughput_order(reg, n) for n in ns])
            s_na = _slope(ns, [n * reg.a(n) for n in ns])
            # lambda = 1/(n a D) exactly, so the slopes close the identity
            assert s_t == pytest.approx(-s_d - s_na, abs=1e-9)
            assert s_t == pytest.approx(-s_d, abs=0.15)

    def test_slope_continuity_near_breakpoint(self):
        # just under alpha = 3/2 the delay is pinned at the floor of 1
        s = _delay_slope(ScalingRegime(alpha=1.49, beta=0.9))
        assert -0.05 <= s <= 0.0

    def test_base_stations_flatten_the_slope(self):
        s_het = _delay_slope(ScalingRegime(alpha=0.8, beta=0.9, mu=0.4))
        s_adhoc = _delay_slope(ScalingRegime(alpha=0.8, beta=0.9))
        assert s_het == pytest.approx(0.30, abs=0.1)
        assert s_het < s_adhoc - 0.05

    def test_weak_base_stations_do_not_flatten(self):
        s_het = _delay_slope(ScalingRegime(alpha=0.8, beta=0.9, mu=0.05))
        s_adhoc = _delay_slope(ScalingRegime(alpha=0.8, beta=0.9))
        assert s_het == pytest.approx(s_adhoc, abs=0.05)

    def test_steep_popularity_slopes_vanish(self):
        for mu in (None, 0.4):
            s = _delay_slope(ScalingRegime(alpha=2.0, beta=0.9, mu=mu))
            assert abs(s) <= 0.05


class TestOptimizerAgreement:
    _NS_SOLVE = [1000, 3162, 10000, 31623, 100000]

    @staticmethod
    def _solve_path(alpha, beta):
        delays, m1s, m2s = [], [], []
        for n in TestOptimizerAgreement._NS_SOLVE:
            a = default_cell_area(n)
            prob = AllocationProblem(
                pop=zipf(max(2, round(n**beta)), alpha), n=n, K=1.0, a=a
            )
            res = solve(prob)
            delays.append(optimized_delay(res, prob))
            m1s.append(res.m1)
            m2s.append(res.m2)
        return delays, m1s, m2s

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 2.0])
    def test_delay_slope_matches_theory(self, alpha):
        reg = ScalingRegime(alpha=alpha, beta=0.9)
        delays, _, _ = self._solve_path(alpha, 0.9)
        s_opt = _slope(self._NS_SOLVE, delays)
        s_th = _slope(
            self._NS_SOLVE,
            [predicted_delay_order(reg, n) for n in self._NS_SOLVE],
        )
        assert s_opt == pytest.approx(s_th, abs=0.1)

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 2.0])
    def test_threshold_orders_track_solver(self, alpha):
        reg = ScalingRegime(alpha=alpha, beta=0.9)
        _, m1s, m2s = self._solve_path(alpha, 0.9)
        orders = [m1_m2_orders(reg, n) for n in self._NS_SOLVE]
        r1 = [m / o[0] for m, o in zip(m1s, orders)]
        r2 = [m / o[1] for m, o in zip(m2s, orders)]
        # order expressions carry constant 1: the ratio must stay in a
        # bounded band as n grows, not equal 1
        assert max(r1) / min(r1) < 2.0
        assert max(r2) / min(r2) < 2.0
        assert 0.1 < min(r2) and max(r2) < 10.0


class TestM1M2Orders:
    def test_steep_ad_hoc_m2_formula(self):
        reg = ScalingRegime(alpha=2.0, beta=0.9)
        n = 10**6
        a = default_cell_area(n)
        m1, m2 = m1_m2_orders(reg, n)
        assert m1 == pytest.approx(min(n**0.9, n * a), rel=1e-15)
        assert m2 == pytest.approx(
            min(n**0.9 + 1.0, 0.25 * n * a**0.25), rel=1e-15
        )

    def test_flat_ad_hoc_caps_at_catalog(self):
        reg = ScalingRegime(alpha=0.8, beta=0.9)
        n = 10**6
        _, m2 = m1_m2_orders(reg, n)
        assert m2 == pytest.approx(n**0.9 + 1.0, rel=1e-15)

    def test_heterogeneous_flat_m2_frozen(self):
        reg = ScalingRegime(alpha=0.8, beta=0.9, mu=0.4)
        n = 10**6
        m1, m2 = m1_m2_orders(reg, n)
        assert m1 == 1.0
        assert m2 == pytest.approx(n**0.6, rel=1e-15)
        assert m2 == pytest.approx(3981.0717055349714, rel=1e-12)

    def test_heterogeneous_critical_m2(self):
        reg = ScalingRegime(alpha=1.5, beta=0.9, mu=0.4)
        n = 10**6
        m1, m2 = m1_m2_orders(reg, n)
        assert m1 == 1.0
        assert m2 == pytest.approx(n**0.6 / math.log(n), rel=1e-15)

    def test_heterogeneous_steep_m1_grows_with_log(self):
        reg = ScalingRegime(alpha=2.0, beta=0.9, mu=0.4)
        n = 10**6
        m1, m2 = m1_m2_orders(reg, n)
        assert m1 == pytest.approx(1.0 + 0.5 * math.log(n), rel=1e-15)
        assert m2 == pytest.approx(
            (n**0.6) ** 0.75 * math.log(n) ** 0.25, rel=1e-15
        )

    def test_heterogeneous_m2_caps_at_catalog(self):
        # steep branch where the raw order overshoots the catalog
        reg = ScalingRegime(alpha=2.0, beta=0.46, mu=0.4)
        n = 10**6
        assert reg.tail_reaches_floor(n)
        raw = (n**0.6) ** 0.75 * math.log(n) ** 0.25
        assert raw > n**0.46 + 1.0
        _, m2 = m1_m2_orders(reg, n)
        assert m2 == pytest.approx(n**0.46 + 1.0, rel=1e-15)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            m1_m2_orders(ScalingRegime(alpha=1.0, beta=0.9), 2)


class TestImprovement:
    def test_threshold_examples(self):
        assert improvement_threshold(0.9) == pytest.approx(0.1, rel=1e-12)
        assert improvement_threshold(1.0) == 0.0
        assert improvement_threshold(1.5) == 0.0

    def test_threshold_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            improvement_threshold(0.0)

    def test_improves_examples(self):
        assert improves_order(0.8, 0.9, 0.4)
        assert not improves_order(0.8, 0.9, 0.05)
        assert not improves_order(2.0, 0.9, 0.4)

    def test_steep_popularity_never_improves(self):
        assert not improves_order(1.5, 0.5, 0.9)
        assert not improves_order(3.0, 0.5, 0.9)


# alpha just inside (5e-13) and just outside (5e-12) the 1e-12 tolerance
# of each breakpoint, on both sides.
_EDGES = [
    x + d for x in (1.0, 1.5) for d in (-5e-12, -5e-13, 5e-13, 5e-12)
]


@pytest.mark.parametrize("alpha", _EDGES)
class TestBreakpointEdges:
    """Near 1 and 3/2 every predictor takes the branch of ``zipf_regime``'s
    band, checked against each branch's formula."""

    n = 10**6

    def test_adhoc_delay(self, alpha):
        n = self.n
        M, na = n**0.9, n * default_cell_area(n)
        want = {
            ZipfRegime.BELOW_ONE: math.sqrt(M / na),
            ZipfRegime.ONE: math.sqrt(M) / (math.log(M) * math.sqrt(na)),
            ZipfRegime.BETWEEN: M ** (1.5 - alpha) / math.sqrt(na),
            ZipfRegime.THREE_HALVES: math.log(M) ** 1.5 / math.sqrt(na),
            ZipfRegime.ABOVE_THREE_HALVES: 1.0,
        }[zipf_regime(alpha)]
        got = predicted_delay_order(ScalingRegime(alpha=alpha, beta=0.9), n)
        assert got == pytest.approx(max(1.0, want), rel=1e-12)

    def test_heterogeneous_delay(self, alpha):
        n = self.n
        f, ln = n**0.4, math.log(n)
        want = {
            ZipfRegime.BELOW_ONE: math.sqrt(n / (f * ln)),
            ZipfRegime.ONE: math.sqrt(n / (f * ln)),
            ZipfRegime.BETWEEN: (n / f) ** (1.5 - alpha) / math.sqrt(ln),
            ZipfRegime.THREE_HALVES: ln,
            ZipfRegime.ABOVE_THREE_HALVES: 1.0,
        }[zipf_regime(alpha)]
        reg = ScalingRegime(alpha=alpha, beta=0.9, mu=0.4)
        assert predicted_delay_order(reg, n) == pytest.approx(want, rel=1e-12)

    def test_m1_m2_orders(self, alpha):
        n, band = self.n, zipf_regime(alpha)
        M, a, ln = n**0.9, default_cell_area(n), math.log(n)
        na, f = n * a, n**0.4
        if band is ZipfRegime.ABOVE_THREE_HALVES:
            steep = (2 * alpha - 3) / (2 * alpha) * n * a ** (1 - 1.5 / alpha)
            adhoc = min(M, na), min(M + 1, steep)
            het = (
                1 + (2 * alpha - 3) / alpha * ln,
                (n / f) ** (1.5 / alpha) * ln ** (1 - 1.5 / alpha),
            )
        elif band is ZipfRegime.THREE_HALVES:
            adhoc, het = (min(M, na / ln), M + 1), (1.0, n / (f * ln))
        else:
            flat = na ** (1.5 / alpha) / M ** (1.5 / alpha - 1)
            adhoc, het = (max(1.0, min(M, na, flat)), M + 1), (1.0, n / f)
        reg = ScalingRegime(alpha=alpha, beta=0.9)
        assert m1_m2_orders(reg, n) == pytest.approx(adhoc, rel=1e-12)
        reg = ScalingRegime(alpha=alpha, beta=0.9, mu=0.4)
        assert m1_m2_orders(reg, n) == pytest.approx(het, rel=1e-12)

    def test_label(self, alpha):
        band = zipf_regime(alpha).label
        assert ScalingRegime(alpha=alpha, beta=0.9).label() == f"adhoc:{band}"
        het = ScalingRegime(alpha=alpha, beta=0.9, mu=0.4)
        assert het.label() == f"het:floored-tail:{band}"

    def test_tail_reaches_floor(self, alpha):
        # beta just below 1 - mu: the rule for alpha <= 3/2 says no, the
        # rule for alpha > 3/2 says yes near 3/2.
        reg = ScalingRegime(alpha=alpha, beta=0.5 - 1e-13, mu=0.5)
        steep = zipf_regime(alpha) is ZipfRegime.ABOVE_THREE_HALVES
        assert reg.tail_reaches_floor(self.n) is steep

    def test_improves_order(self, alpha):
        below = zipf_regime(alpha) < ZipfRegime.THREE_HALVES
        assert improves_order(alpha, 0.9, 0.4) is below
