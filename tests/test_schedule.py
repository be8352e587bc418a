import math
import re

import numpy as np
import pytest

from astn.schedule import NoiseSchedule, TimestepGrid, make_linear_schedule, make_timestep_grid

# cumulative product of (1 - beta_t) for the default schedule, computed with
# mpmath at 60 decimal digits (frozen golden constant)
ALPHA_BAR_1000_GOLDEN = 4.035829765375683e-05


def test_linear_schedule_shapes(sched):
    assert sched.T == 1000
    assert sched.betas.shape == (1000,)
    assert sched.alpha_bars.shape == (1001,)
    assert sched.betas[0] == 1e-4 and sched.betas[-1] == 0.02


def test_single_step_schedule():
    s = make_linear_schedule(1, beta_start=0.5, beta_end=0.5)
    assert np.allclose(s.alpha_bars, [1.0, 0.5])


def test_alpha_bar_golden_constant(sched):
    assert sched.alpha_bar(1000) == pytest.approx(ALPHA_BAR_1000_GOLDEN, rel=1e-13)


def test_alpha_bar_golden_against_mpmath(sched):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    bs, be = mpmath.mpf("1e-4"), mpmath.mpf("0.02")
    prod = mpmath.mpf(1)
    for i in range(1000):
        prod *= 1 - (bs + (be - bs) * mpmath.mpf(i) / 999)
    assert float(prod) == pytest.approx(ALPHA_BAR_1000_GOLDEN, rel=1e-14)


def test_alpha_bar_endpoints(sched):
    assert sched.alpha_bar(0) == 1.0
    assert sched.alpha_bar(1) == pytest.approx(1.0 - 1e-4, abs=1e-15)


def test_alpha_bar_matches_direct_product():
    s = make_linear_schedule(200, 5e-4, 0.03)
    prod = 1.0
    for beta in s.betas:
        prod *= 1.0 - beta
    assert s.alpha_bar(200) == pytest.approx(prod, rel=1e-12)


def test_alpha_bar_range_errors(sched):
    with pytest.raises(ValueError):
        sched.alpha_bar(-1)
    with pytest.raises(ValueError):
        sched.alpha_bar(1001)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1000.5])
def test_alpha_bar_non_finite_or_out_of_range_is_a_range_error(sched, t):
    # the range check runs before int(t), so inf is a ValueError, not an OverflowError
    with pytest.raises(ValueError, match="outside"):
        sched.alpha_bar(t)


@pytest.mark.parametrize("t", [2.5, 2.7, 0.5, 999.999, np.float64(300.25)])
def test_alpha_bar_rejects_fractional_steps(sched, t):
    # used to truncate: alpha_bar(2.5) was alpha_bar(2)
    with pytest.raises(ValueError, match="integral timestep"):
        sched.alpha_bar(t)


@pytest.mark.parametrize("t", [300.0, np.int64(300), np.int32(300), np.float64(300.0), np.uint16(300)])
def test_alpha_bar_takes_integral_numbers(sched, t):
    got = sched.alpha_bar(t)
    assert type(got) is float
    assert got == sched.alpha_bar(300) == float(sched.alpha_bars[300])


def test_monotonicity(sched, sched_small):
    for s in (sched, sched_small):
        assert (np.diff(s.alpha_bars) < 0).all()


def test_recurrence_consistency(sched):
    ratio = sched.alpha_bars[1:] / sched.alpha_bars[:-1]
    eps = np.finfo(np.float64).eps
    assert np.abs(ratio - sched.alphas).max() <= 4 * eps


def test_schedule_domain_errors():
    with pytest.raises(ValueError):
        make_linear_schedule(0)
    with pytest.raises(ValueError):
        make_linear_schedule(10, beta_start=0.0)
    with pytest.raises(ValueError):
        make_linear_schedule(10, beta_start=0.5, beta_end=1.0)
    with pytest.raises(ValueError):
        make_linear_schedule(10, beta_start=0.3, beta_end=0.2)


def _with(table, index, value):
    table = table.copy()
    table[index] = value
    return table


_SMALL = make_linear_schedule(4, beta_start=0.1, beta_end=0.2)


# case -> (NoiseSchedule field overrides of _SMALL's tables, error text)
_BAD_SCHEDULE = {
    "no_steps": ({"T": 0}, "schedule needs at least one step"),
    "betas_length": ({"betas": _SMALL.betas[:-1]}, "betas must have length T"),
    "beta_zero": ({"betas": _with(_SMALL.betas, 2, 0.0)}, "every beta must lie in (0, 1)"),
    "beta_one": ({"betas": _with(_SMALL.betas, 2, 1.0)}, "every beta must lie in (0, 1)"),
    "alpha_bars_length": ({"alpha_bars": _SMALL.alpha_bars[:-1]}, "alpha_bars must have length T+1"),
    "alpha_bar_start": ({"alpha_bars": _with(_SMALL.alpha_bars, 0, 0.99)},
                        "alpha_bars must start at 1 and stay positive"),
    "alpha_bar_end": ({"alpha_bars": _with(_SMALL.alpha_bars, -1, 0.0)},
                      "alpha_bars must start at 1 and stay positive"),
    "alpha_bars_flat": ({"alpha_bars": _with(_SMALL.alpha_bars, 2, _SMALL.alpha_bars[1])},
                        "alpha_bars must be strictly decreasing"),
    "betas_halved": ({"betas": 0.5 * _SMALL.betas}, "alphas must equal 1 - betas"),
    "alpha_bars_off_product": ({"alpha_bars": _with(_SMALL.alpha_bars, 2, _SMALL.alpha_bars[2] * (1.0 - 1e-6))},
                               "alpha_bars must be the running product of alphas"),
}


@pytest.mark.parametrize("case", list(_BAD_SCHEDULE))
def test_schedule_constructor_errors(case):
    override, message = _BAD_SCHEDULE[case]
    tables = {"T": _SMALL.T, "betas": _SMALL.betas, "alphas": _SMALL.alphas, "alpha_bars": _SMALL.alpha_bars}
    NoiseSchedule(**tables)  # the unchanged tables are valid
    with pytest.raises(ValueError, match=re.escape(message)):
        NoiseSchedule(**{**tables, **override})


def test_schedule_accepts_alpha_bars_from_another_product_order(sched):
    # exp(sum(log)) differs from cumprod by rounding (about 1e-14 relative at T = 1000)
    alpha_bars = np.concatenate([[1.0], np.exp(np.cumsum(np.log(sched.alphas)))])
    assert not np.array_equal(alpha_bars, sched.alpha_bars)
    NoiseSchedule(T=sched.T, betas=sched.betas, alphas=sched.alphas, alpha_bars=alpha_bars)


def test_log_snr_interpolation(sched):
    lam500 = sched.log_snr(500)
    ab500 = sched.alpha_bar(500)
    assert lam500 == pytest.approx(0.5 * math.log(ab500 / (1 - ab500)), rel=1e-12)
    # fractional points sit between the neighbouring integer values
    assert sched.log_snr(501) < sched.log_snr(500.5) < lam500
    with pytest.raises(ValueError):
        sched.log_snr(0)


def _reference_log_snr(s, t):
    # the per-call formula log_snr computed before the table existed
    lo = math.floor(t)
    ab_lo = float(s.alpha_bars[lo])
    lam_lo = 0.5 * math.log(ab_lo / (1.0 - ab_lo))
    if t == lo:
        return lam_lo
    ab_hi = float(s.alpha_bars[lo + 1])
    lam_hi = 0.5 * math.log(ab_hi / (1.0 - ab_hi))
    return lam_lo + (t - lo) * (lam_hi - lam_lo)


def _bisect_timestep(s, lam, t_lo, t_hi):
    # the 60-step bisection the midpoint solver used before the closed form
    lo, hi = float(t_lo), float(t_hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if s.log_snr(mid) > lam:  # log-SNR decreases with t
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_log_snr_table_matches_formula_exactly(sched, sched_small):
    for s in (sched, sched_small):
        for t in range(1, s.T + 1):
            assert s.log_snr(t) == _reference_log_snr(s, t)
        for t in (1.5, 12.25, s.T - 0.001):
            assert s.log_snr(t) == _reference_log_snr(s, t)


@pytest.mark.parametrize("N", [10, 25, 50, 100, 150, 500, 1000])
def test_timestep_at_log_snr_matches_bisection(sched, N):
    steps = make_timestep_grid(sched.T, N, sched.T).steps
    for t, u in zip(steps[:-1], steps[1:]):
        lam_t, lam_u = sched.log_snr(t), sched.log_snr(u)
        lam_mid = lam_t + 0.5 * (lam_u - lam_t)
        got = sched.timestep_at_log_snr(lam_mid, u, t)
        assert u <= got <= t
        assert abs(got - _bisect_timestep(sched, lam_mid, u, t)) <= 1e-9
        assert sched.log_snr(got) == pytest.approx(lam_mid, abs=1e-12)
        assert sched.timestep_at_log_snr(lam_t, u, t) == t
        assert sched.timestep_at_log_snr(lam_u, u, t) == u


def test_timestep_at_log_snr_table_endpoints(sched):
    T = sched.T
    for lam in (sched.log_snr(1), sched.log_snr(T), sched.log_snr(2), sched.log_snr(T - 1),
                0.5 * (sched.log_snr(1) + sched.log_snr(T))):
        got = sched.timestep_at_log_snr(lam, 1, T)
        assert abs(got - _bisect_timestep(sched, lam, 1, T)) <= 1e-9
    assert sched.timestep_at_log_snr(sched.log_snr(1), 1, T) == 1
    assert sched.timestep_at_log_snr(sched.log_snr(T), 1, T) == T


def test_value_tables_match_the_lookups(sched, sched_small):
    # the samplers and the oracle read these tuples in place of alpha_bar and log_snr
    for s in (sched, sched_small):
        assert len(s._alpha_bar_values) == len(s._log_snr_values) == s.T + 1
        assert s._log_snr_values[0] == math.inf
        for t in range(s.T + 1):
            assert type(s._alpha_bar_values[t]) is float and s._alpha_bar_values[t] == s.alpha_bar(t)
        for t in range(1, s.T + 1):
            assert type(s._log_snr_values[t]) is float and s._log_snr_values[t] == s.log_snr(t)


def _searchsorted_timestep(s, lam, t_lo, t_hi):
    """timestep_at_log_snr's former segment search: np.searchsorted on the negated table slice."""
    lams = np.array(s._log_snr_values)
    j = t_lo - 1 + int(np.searchsorted(-lams[t_lo:t_hi], -lam, side="right"))
    lam_j = float(lams[j])
    return j + (lam - lam_j) / (float(lams[j + 1]) - lam_j)


def test_timestep_at_log_snr_equals_searchsorted_form(sched, sched_small):
    for s in (sched, sched_small):
        lams = s._log_snr_values
        for t in range(1, s.T):
            inside = [lams[t] + f * (lams[t + 1] - lams[t]) for f in (1e-12, 0.25, 0.5, 0.75, 1.0 - 1e-12)]
            # a table value is a tie for the segment search: it must land on the step itself
            for lam in inside + [lams[t], lams[t + 1]]:
                for t_lo, t_hi in ((t, t + 1), (1, s.T), (max(1, t - 3), min(s.T, t + 5))):
                    assert s.timestep_at_log_snr(lam, t_lo, t_hi) == _searchsorted_timestep(s, lam, t_lo, t_hi)
            assert s.timestep_at_log_snr(lams[t], 1, s.T) == t


def test_timestep_at_log_snr_domain_errors(sched):
    with pytest.raises(ValueError):
        sched.timestep_at_log_snr(sched.log_snr(10), 10, 10)
    with pytest.raises(ValueError):
        sched.timestep_at_log_snr(sched.log_snr(10), 0, 20)
    with pytest.raises(ValueError):
        sched.timestep_at_log_snr(sched.log_snr(30), 10, 20)


def test_alpha_bar_at_fractional(sched):
    assert sched.alpha_bar_at(500) == sched.alpha_bar(500)
    mid = sched.alpha_bar_at(500.5)
    assert sched.alpha_bar(501) < mid < sched.alpha_bar(500)


def test_grid_dense_full():
    g = make_timestep_grid(1000, 1000, 1000)
    assert g.steps == tuple(range(1000, 0, -1))


def test_grid_ast150_dense():
    g = make_timestep_grid(150, 150, 1000)
    assert g.steps == tuple(range(150, 0, -1))
    assert g.origin == 150


def test_grid_sparse_spacing():
    g = make_timestep_grid(1000, 4, 1000)
    assert len(g) == 4
    assert g.steps[0] == 1000
    assert g.steps[-1] <= math.ceil(1000 / 4)
    gaps = -np.diff(np.asarray(g.steps))
    ideal = (1000 - 1) / 3
    assert np.abs(gaps - ideal).max() <= 1.0


def test_grid_cardinality_property():
    rng = np.random.default_rng(7)
    drawn = []
    for _ in range(300):
        T = int(rng.integers(1, 400))
        origin = int(rng.integers(1, T + 1))
        drawn.append((origin, int(rng.integers(1, origin + 1)), T))
    every = [(origin, N, 150) for origin in range(1, 151) for N in range(1, origin + 1)]
    for origin, N, T in drawn + every:
        g = make_timestep_grid(origin, N, T)
        steps = np.asarray(g.steps)
        assert len(g) == N
        assert steps[0] == origin
        assert (np.diff(steps) < 0).all()
        assert steps[-1] == (1 if N > 1 else origin)


def test_grid_domain_errors():
    with pytest.raises(ValueError):
        make_timestep_grid(10, 11, 1000)
    with pytest.raises(ValueError):
        make_timestep_grid(1001, 5, 1000)


@pytest.mark.parametrize("steps, message", [
    ((), "empty timestep grid"),
    ((5, 5, 1), "grid steps must be strictly decreasing"),
    ((3, 1, 2), "grid steps must be strictly decreasing"),
    ((5, 2, 0), "grid steps must stay >= 1"),
], ids=["empty", "repeat", "rise", "below_one"])
def test_grid_constructor_errors(steps, message):
    with pytest.raises(ValueError, match=message):
        TimestepGrid(steps)
