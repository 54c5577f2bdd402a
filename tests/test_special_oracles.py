"""The numpy kernels of longmatch._special against scipy, the test oracle.

ndtr and ndtri must equal scipy to the last bit (compared as bytes, so a
signed zero counts): that is what keeps every written quantile, Wilson bound
and Wald p-value byte-identical. chdtrc, betainc and the Shapiro-Wilk test
must match within stated tolerances. Each kernel test prints its largest
deviation (run with -s to see them).
"""

import math

import numpy as np
import pytest
from scipy import special, stats

from longmatch import _special
from longmatch.lmm import ModelSpec, fit_spec, likelihood_ratio_test
from longmatch.metrics import _pearson, wilson_interval
from longmatch.synth import _normal_mass

from test_lmm import make_model_table

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-9)
SHAPIRO_NS = (*range(3, 13), 50, 333, 4999, 5000)
PEARSON_NS = (2, 3, 4, 5, 7, 12, 50, 333, 7000)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def max_rel(got, want) -> float:
    """Largest |got - want| / |want|, where equal values (zeros, infinities)
    count as no deviation."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.where(got == want, 0.0, np.abs(got - want) / np.abs(want))
    return float(dev.max(initial=0.0))


def report_bits(name, got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    differ = int(np.count_nonzero(got.view(np.int64) != want.view(np.int64)))
    print(f"{name}: {got.size} points, {differ} differ in any bit, "
          f"largest relative deviation {max_rel(got, want):.3g}")
    return differ


def test_ndtri_is_scipy_to_the_last_bit():
    rng = np.random.default_rng(3)
    tails = 10.0 ** -rng.uniform(0.0, 300.0, 50_000)
    q = 0.5 + np.array(CONFIDENCES) / 2.0
    points = np.concatenate([
        (np.arange(1, 52) - 0.375) / 51.25,          # Q-Q grid, n = 51
        (np.arange(1, 3001) - 0.375) / 3000.25,      # Q-Q grid, n = 3000
        rng.uniform(0.0, 1.0, 200_000),
        tails, 1.0 - tails[:20_000], q,
        [0.0, 1.0, 0.5, 5e-324, 1e-300, np.nextafter(1.0, 0.0), np.exp(-2.0)],
    ])
    assert points.size >= 200_000
    assert report_bits("ndtri", _special.ndtri(points), special.ndtri(points)) == 0


def test_ndtr_is_scipy_to_the_last_bit():
    rng = np.random.default_rng(4)
    points = np.concatenate([
        rng.normal(0.0, 3.0, 100_000), rng.uniform(-40.0, 40.0, 100_000),
        [0.0, -0.0, 1e-300, -1e-300, 0.5 ** 0.5, -(0.5 ** 0.5), 1.0, -1.0, 8.0, -8.0,
         38.5, -38.5, 1e6, -1e6, np.inf, -np.inf],
    ])
    assert points.size >= 200_000
    assert report_bits("ndtr", _special.ndtr(points), special.ndtr(points)) == 0
    assert np.isnan(_special.ndtr(np.nan)) and np.isnan(_special.ndtri(np.nan))


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_wilson_z_is_normal_quantile(confidence):
    q = 0.5 + confidence / 2.0
    assert same_bits(_special.ndtri(q), stats.norm.ppf(q))
    z = stats.norm.ppf(q)
    for k, n in ((0, 1), (0, 100), (3, 100), (8, 330), (25, 25), (499, 1000)):
        phat = k / n
        denom = 1.0 + z * z / n
        center = (phat + z * z / (2.0 * n)) / denom
        half = (z / denom) * np.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
        low = 0.0 if k == 0 else max(0.0, float(center - half))
        high = 1.0 if k == n else min(1.0, float(center + half))
        assert same_bits(wilson_interval(k, n, confidence), (low, high))


def test_two_sided_normal_tail():
    rng = np.random.default_rng(7)
    a = np.abs(np.concatenate([rng.normal(0.0, 3.0, 10_000),
                               rng.uniform(-40.0, 40.0, 1_000),
                               [0.0, 1e-300, 8.0, 38.5, 1e6, np.inf]]))
    assert same_bits(_special.ndtr(-a), stats.norm.sf(a))


def test_fit_p_values_are_normal_tails():
    table = make_model_table(np.random.default_rng(71))
    fit = fit_spec(table, ModelSpec(outcome="m1"))
    assert same_bits(fit.p_values, 2.0 * stats.norm.sf(np.abs(fit.z_stats)))


@pytest.mark.parametrize("df", [1, 2, 3, 4])
def test_chi_square_tail(df):
    rng = np.random.default_rng(df)
    x = np.concatenate([rng.chisquare(df, 10_000), rng.uniform(0.0, 200.0, 1_000),
                        [0.0, 1e-300, 1e-8, 1e4, np.inf]])
    got = np.array([_special.chdtrc(df, v) for v in x])
    dev = max_rel(got, special.chdtrc(df, x))
    print(f"chdtrc df={df}: {x.size} points, largest relative deviation {dev:.3g}")
    assert dev <= 1e-10
    # closed forms: chi2(1) tail is erfc(sqrt(x / 2)), chi2(2) tail is exp(-x / 2)
    if df == 1:
        assert max_rel(got, [math.erfc(math.sqrt(v / 2.0)) for v in x]) <= 1e-10
    if df == 2:
        assert max_rel(got, [math.exp(-v / 2.0) for v in x]) <= 1e-10


def test_lrt_p_value_is_chi_square_tail():
    table = make_model_table(np.random.default_rng(72), beta={"intercept": 10.0, "T": -0.01})
    full = fit_spec(table, ModelSpec(outcome="m1", apc_mode="gallery_age_plus_t"))
    nested = fit_spec(table, ModelSpec(outcome="m1", apc_mode=None))
    res = likelihood_ratio_test(nested, full)
    assert res.df == 2 and 0.0 < res.p < 1.0
    assert res.null_distribution == "chi2(2)"
    assert res.p == pytest.approx(stats.chi2.sf(res.chi2, res.df), rel=1e-10)


@pytest.mark.parametrize("n", [51, 52])
def test_qq_quantiles_are_normal_quantiles(n):
    # the theoretical partner of qq_*.csv's i-th of n rows, as README gives
    # it: ndtri of Blom's plotting position. Odd n puts one position at
    # exactly 0.5, where a sign slip would give -0.0
    ranks = np.arange(1, n + 1)
    positions = (ranks - 0.375) / (n + 0.25)
    got = _special.ndtri(positions)
    assert same_bits(got, stats.norm.ppf(positions))
    if n % 2:
        assert positions[n // 2] == 0.5 and same_bits(got[n // 2], 0.0)


def test_truncated_normal_mass():
    rng = np.random.default_rng(9)
    base = rng.uniform(-10.0, 110.0, 5_000)
    for low, high, sd in ((0.0, 100.0, 12.5), (40, 90, 3), (-1e3, 1e3, 1e-3)):
        expected = stats.norm.cdf(high, base, sd) - stats.norm.cdf(low, base, sd)
        assert same_bits(_normal_mass(low, high, base, sd), expected)
        scalar = stats.norm.cdf(high, 50.0, sd) - stats.norm.cdf(low, 50.0, sd)
        assert same_bits(_normal_mass(low, high, 50.0, sd), scalar)


def pearson_samples(n):
    """The (x, y) draws of the Pearson tests for sample size n."""
    rng = np.random.default_rng(n)
    for trial in range(20):
        x = rng.normal(0.0, 1.0, n)
        y = rng.uniform(-1.0, 1.0) * x + rng.normal(0.0, rng.uniform(0.01, 3.0), n)
        if trial % 4 == 0:   # tied, integer-valued scores
            x, y = np.round(3.0 * x), np.round(2.0 * y)
        yield x, y


def test_betainc_on_the_pearson_grid():
    # the (a, a, (1 - |r|) / 2) arguments the Pearson p of failure_analysis uses
    got, want = [], []
    for n in PEARSON_NS[1:]:   # n = 2 has p = 1 without the beta tail
        for x, y in pearson_samples(n):
            pearson = _pearson(x, y)
            if pearson is None:
                continue
            a = n / 2.0 - 1.0
            half_tail = (1.0 - abs(pearson[0])) / 2.0
            got.append(_special.betainc(a, a, half_tail))
            want.append(special.betainc(a, a, half_tail))
    dev = max_rel(got, want)
    print(f"betainc: {len(got)} points, largest relative deviation {dev:.3g}")
    assert len(got) > 100 and dev <= 1e-10


@pytest.mark.parametrize("n", PEARSON_NS)
def test_pearson_matches_scipy_stats(n):
    # numpy r and a regularized-beta p against scipy.stats.pearsonr; the
    # report prints them as r:+.3f and p:.3g
    for x, y in pearson_samples(n):
        got = _pearson(x, y)
        if got is None:
            continue
        r, p = stats.pearsonr(x, y)
        assert got[0] == pytest.approx(r, abs=1e-14)
        assert got[1] == pytest.approx(p, rel=1e-11, abs=1e-300)


def shapiro_samples(n):
    """Continuous, skewed, rounded (tied) and three-valued (heavily tied) draws."""
    rng = np.random.default_rng(n)
    for trial in range(12):
        kind = trial % 4
        if kind == 0:
            x = rng.normal(0.0, 1.0, n)
        elif kind == 1:
            x = 100.0 * rng.exponential(1.0, n) + 5.0
        elif kind == 2:
            x = np.round(rng.normal(0.0, 2.0, n))
        else:
            x = rng.integers(0, 3, n).astype(np.float64)
        if np.ptp(x) > 0:
            yield x


@pytest.mark.parametrize("n", SHAPIRO_NS)
def test_shapiro_wilk_matches_scipy(n):
    dw = 0.0
    for x in shapiro_samples(n):
        dw = max(dw, abs(_special.shapiro(x) - float(stats.shapiro(x).statistic)))
    print(f"shapiro n={n}: largest |W deviation| {dw:.3g}")
    assert dw <= 1e-12


def test_shapiro_wilk_refuses_what_as_r94_does_not_cover():
    for bad in ([1.0, 2.0], np.zeros(3), np.arange(_special.SHAPIRO_MAX_N + 1.0)):
        with pytest.raises(ValueError):
            _special.shapiro(bad)
