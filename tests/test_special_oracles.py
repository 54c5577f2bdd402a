"""The scipy.special kernels the package calls against the scipy.stats calls
they replace: equal to the last bit (compared as bytes, so a signed zero
counts), which is what keeps every written artifact byte-identical."""

import numpy as np
import pytest
from scipy import special, stats

from longmatch.lmm import ModelSpec, fit_reml, fit_spec, likelihood_ratio_test
from longmatch.metrics import _pearson, wilson_interval
from longmatch.synth import _normal_mass
from longmatch.validation import residual_diagnostics

from test_lmm import make_model_table

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-9)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_wilson_z_is_normal_quantile(confidence):
    q = 0.5 + confidence / 2.0
    assert same_bits(special.ndtri(q), stats.norm.ppf(q))
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
    assert same_bits(special.ndtr(-a), stats.norm.sf(a))


def test_fit_p_values_are_normal_tails():
    table = make_model_table(np.random.default_rng(71))
    fit = fit_spec(table, ModelSpec(outcome="m1"))
    assert same_bits(fit.p_values, 2.0 * stats.norm.sf(np.abs(fit.z_stats)))


@pytest.mark.parametrize("df", [1, 2, 3, 4])
def test_chi_square_tail(df):
    rng = np.random.default_rng(df)
    x = np.concatenate([rng.chisquare(df, 10_000), rng.uniform(0.0, 200.0, 1_000),
                        [0.0, 1e-300, 1e-8, 1e4, np.inf]])
    assert same_bits(special.chdtrc(df, x), stats.chi2.sf(x, df))


def test_lrt_p_value_is_chi_square_tail():
    table = make_model_table(np.random.default_rng(72), beta={"intercept": 10.0, "T": -0.01})
    full = fit_spec(table, ModelSpec(outcome="m1", apc_mode="gallery_age_plus_t"))
    nested = fit_spec(table, ModelSpec(outcome="m1", apc_mode=None))
    res = likelihood_ratio_test(nested, full)
    assert res.df == 2 and 0.0 < res.p < 1.0
    assert same_bits(res.p, stats.chi2.sf(res.chi2, res.df))


@pytest.mark.parametrize("n", [51, 52])
def test_qq_quantiles_are_normal_quantiles(n):
    # odd n puts one plotting position at exactly 0.5, where a sign slip
    # would write -0.0 into qq_*.csv
    rng = np.random.default_rng(n)
    g = np.repeat(np.arange(n), 2)[:n]
    fit = fit_reml(rng.normal(0.0, 1.0, n), np.ones((n, 1)), None, g)
    ranks = np.arange(1, n + 1)
    expected = stats.norm.ppf((ranks - 0.375) / (n + 0.25))
    assert same_bits(residual_diagnostics(fit).theoretical_quantiles, expected)


def test_truncated_normal_mass():
    rng = np.random.default_rng(9)
    base = rng.uniform(-10.0, 110.0, 5_000)
    for low, high, sd in ((0.0, 100.0, 12.5), (40, 90, 3), (-1e3, 1e3, 1e-3)):
        expected = stats.norm.cdf(high, base, sd) - stats.norm.cdf(low, base, sd)
        assert same_bits(_normal_mass(low, high, base, sd), expected)
        scalar = stats.norm.cdf(high, 50.0, sd) - stats.norm.cdf(low, 50.0, sd)
        assert same_bits(_normal_mass(low, high, 50.0, sd), scalar)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 12, 50, 333, 7000])
def test_pearson_matches_scipy_stats(n):
    # numpy r and a regularized-beta p against scipy.stats.pearsonr; the
    # report prints them as r:+.3f and p:.3g
    rng = np.random.default_rng(n)
    for trial in range(20):
        x = rng.normal(0.0, 1.0, n)
        y = rng.uniform(-1.0, 1.0) * x + rng.normal(0.0, rng.uniform(0.01, 3.0), n)
        if trial % 4 == 0:   # tied, integer-valued scores
            x, y = np.round(3.0 * x), np.round(2.0 * y)
        got = _pearson(x, y)
        if got is None:
            continue
        r, p = stats.pearsonr(x, y)
        assert got[0] == pytest.approx(r, abs=1e-14)
        assert got[1] == pytest.approx(p, rel=1e-11, abs=1e-300)
