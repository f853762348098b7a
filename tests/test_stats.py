import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from dispomet.stats import (
    STAR_LEGEND,
    EmptySample,
    TestResult,
    exact_cdf,
    format_cell,
    mann_whitney,
    render_table,
    stars_for,
)


def test_identical_samples():
    result = mann_whitney([1, 2, 3], [1, 2, 3])
    assert result.median_diff == 0.0
    assert result.p_value == 1.0


@pytest.mark.parametrize("n1, n2", [(3, 3), (1, 2), (7, 11), (30, 30)])
def test_fully_tied_samples_have_no_rank_variance(n1, n2):
    # The tie correction cancels the variance exactly: (n**3 - n) / (n * (n - 1)) is n + 1.
    result = mann_whitney([0.25] * n1, [0.25] * n2)
    assert result.p_value == 1.0 and result.mode == "normal" and result.stars == ""
    assert result.median_diff == 0.0


def test_fully_separated_samples_exact():
    result = mann_whitney([1, 2, 3, 4], [5, 6, 7, 8])
    assert result.mode == "exact"
    assert result.u_statistic == 0.0
    assert result.p_value == pytest.approx(2 / 70)
    assert result.median_diff == -4.0


def test_argument_swap_negates_diff_keeps_p():
    a, b = [1.0, 2.5, 4.0], [3.0, 5.0, 6.0, 7.5]
    r1 = mann_whitney(a, b)
    r2 = mann_whitney(b, a)
    assert r1.median_diff == -r2.median_diff
    assert r1.p_value == r2.p_value


def test_empty_sample_raises():
    with pytest.raises(EmptySample):
        mann_whitney([], [1.0])


@pytest.mark.parametrize("x, y", [([math.nan], [1.0]), ([1.0, 2.0], [3.0, math.nan])], ids=["first", "second"])
def test_nan_in_either_sample_raises(x, y):
    with pytest.raises(ValueError, match="NaN"):
        mann_whitney(x, y)


def test_shift_invariance():
    a, b = [0.1, 0.4, 0.9], [0.2, 0.3, 0.8, 1.4]
    r1 = mann_whitney(a, b)
    r2 = mann_whitney([v + 5 for v in a], [v + 5 for v in b])
    assert r2.u_statistic == r1.u_statistic
    assert r2.p_value == r1.p_value
    assert r2.stars == r1.stars
    assert r2.median_diff == pytest.approx(r1.median_diff)


def full_enumeration_cdf(u, n1, n2):
    """P(U <= u) by enumerating every rank assignment."""
    n = n1 + n2
    total = 0
    at_most = 0
    for ranks in itertools.combinations(range(1, n + 1), n1):
        u1 = n1 * n2 + n1 * (n1 + 1) / 2 - sum(ranks)
        total += 1
        if u1 <= u:
            at_most += 1
    return Fraction(at_most, total)


@pytest.mark.parametrize("n1,n2", [(1, 1), (2, 3), (3, 3), (4, 4), (5, 3), (6, 2)])
def test_exact_cdf_matches_full_enumeration(n1, n2):
    for u in range(n1 * n2 + 1):
        assert exact_cdf(u, n1, n2) == full_enumeration_cdf(u, n1, n2)


def test_exact_cdf_one_against_many_is_uniform():
    # A single value is equally likely to hold each of the 1101 ranks.
    for u in (0, 5, 550, 1100):
        assert exact_cdf(u, 1, 1100) == Fraction(u + 1, 1101)


def test_exact_agrees_with_scipy():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = list(np.round(rng.normal(size=rng.integers(2, 9)), 6))
        y = list(np.round(rng.normal(size=rng.integers(2, 9)), 6))
        if len(set(x + y)) < len(x + y):
            continue
        ours = mann_whitney(x, y)
        ref = sps.mannwhitneyu(x, y, alternative="two-sided", method="exact")
        assert ours.mode == "exact"
        assert ours.p_value == pytest.approx(ref.pvalue)


def test_normal_approx_close_to_scipy():
    rng = np.random.default_rng(4)
    x = list(rng.normal(size=40))
    y = list(rng.normal(0.5, size=35))
    ours = mann_whitney(x, y)
    ref = sps.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
    assert ours.mode == "normal"
    assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)


def test_stars_thresholds():
    assert stars_for(0.005) == "***"
    assert stars_for(0.01) == "**"
    assert stars_for(0.049) == "**"
    assert stars_for(0.05) == "*"
    assert stars_for(0.099) == "*"
    assert stars_for(0.1) == ""
    # monotone: stars never increase as p grows
    lengths = [len(stars_for(p)) for p in (0.001, 0.02, 0.07, 0.5)]
    assert lengths == sorted(lengths, reverse=True)


def _result(diff, p):
    return TestResult(diff, 0.0, diff, 0.0, p, stars_for(p), "exact")


def test_format_cell_conventions():
    assert format_cell(_result(-0.175, 0.004)) == "-0.175***"
    assert format_cell(_result(-0.021, 0.35)) == "-0.021"
    assert format_cell(_result(0.0, 1.0)) == "0.000"
    assert format_cell(_result(-0.0001, 1.0)) == "0.000"  # no negative zero


def test_render_table_layout():
    rows = [("-1x = 1x", [_result(-0.175, 0.004)] * 3)]
    table = render_table([("Positive Portfolio", rows)], ["Count", "Total", "Value"], row_header="ETF")
    lines = table.splitlines()
    assert lines[0] == "Positive Portfolio"
    assert "Count" in lines[1] and "Value" in lines[1]
    assert "-0.175***" in lines[2]
    assert lines[-1] == STAR_LEGEND
