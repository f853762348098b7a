"""Nonparametric two-sample comparisons of disposition-effect values.

The Mann-Whitney U test is computed exactly (full enumeration of the null
rank distribution) for small tie-free samples, and with the normal
approximation including tie and continuity corrections otherwise.  Reported
median differences follow the first-minus-second sign convention, with
significance stars *** p<0.01, ** p<0.05, * p<0.1.  The plans of
``compare``'s tables, the ``*_sections`` functions, build each table's
sections from the registry's leverages; cli names the one each --spec runs.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import partial
from itertools import combinations
from typing import NamedTuple, Sequence

from .ingest import median, number_text
from .metrics import Context

STAR_LEGEND = "* p<0.1, ** p<0.05, *** p<0.01"

#: Use exact enumeration when |x|*|y| is at most this and there are no ties.
EXACT_PRODUCT_LIMIT = 400


class EmptySample(Exception):
    pass


class TestResult(NamedTuple):
    median_first: float
    median_second: float
    median_diff: float  # first minus second
    u_statistic: float  # U of the first sample
    p_value: float
    stars: str  # "", "*", "**", or "***"
    mode: str  # "exact" or "normal"


def stars_for(p_value: float) -> str:
    if p_value < 0.01:
        return "***"
    if p_value < 0.05:
        return "**"
    if p_value < 0.1:
        return "*"
    return ""


def _midranks(combined: Sequence[float]) -> list[float]:
    order = sorted(range(len(combined)), key=combined.__getitem__)
    ranks = [0.0] * len(combined)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and combined[order[j + 1]] == combined[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _u_counts(n1: int, n2: int) -> list[int]:
    """Null distribution of U as integer counts for u = 0 .. n1*n2.

    The counts are the coefficients of the Gaussian binomial coefficient
    [n1 + n2 choose n] in q, n = min(n1, n2), built as the product over
    i = 1..n of (1 - q^(m+i)) / (1 - q^i), m = max(n1, n2).  Each factor
    changes coefficient u only from coefficients at or below u, so the
    series can be cut at the final degree m*n throughout.
    """
    m, n = max(n1, n2), min(n1, n2)
    top = m * n
    counts = [1] + [0] * top
    for i in range(1, n + 1):
        for u in range(top, m + i - 1, -1):  # times (1 - q^(m+i)), high to low
            counts[u] -= counts[u - m - i]
        for u in range(i, top + 1):  # divided by (1 - q^i): running sum of stride i
            counts[u] += counts[u - i]
    return counts


def _exact_counts(u: float, n1: int, n2: int) -> tuple[int, int]:
    """The arrangements with U <= u, and all arrangements, under the exact tie-free null."""
    counts = _u_counts(n1, n2)
    top = min(int(math.floor(u)), n1 * n2)
    return sum(counts[: max(top + 1, 0)]), sum(counts)


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Two-sided Mann-Whitney U test of location difference.

    Uses exact enumeration when |x|*|y| <= EXACT_PRODUCT_LIMIT and the
    pooled sample is tie-free, the normal approximation (with tie and
    continuity corrections) otherwise; the result's ``mode`` says which.
    """
    if len(x) == 0 or len(y) == 0:
        raise EmptySample("both samples must be non-empty")
    n1, n2 = len(x), len(y)
    combined = list(x) + list(y)
    if any(v != v for v in combined):
        raise ValueError("samples must not hold NaN")
    ranks = _midranks(combined)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    has_ties = len(set(combined)) < len(combined)
    mode = "exact" if (n1 * n2 <= EXACT_PRODUCT_LIMIT and not has_ties) else "normal"

    if mode == "exact":
        below, total = _exact_counts(min(u1, u2), n1, n2)
        p = min(1.0, 2 * below / total)  # int division rounds correctly, as float(Fraction) does
    else:
        n = n1 + n2
        # Tie correction on the rank variance.
        tie_sum = sum(t**3 - t for t in Counter(combined).values())
        var = n1 * n2 / 12.0 * ((n + 1) - tie_sum / (n * (n - 1)))
        if var <= 0.0:
            p = 1.0
        else:
            mu = n1 * n2 / 2.0
            z = (max(u1, u2) - mu - 0.5) / math.sqrt(var)  # continuity correction
            p = min(1.0, 2.0 * _normal_sf(z))

    m1 = float(median(x))
    m2 = float(median(y))
    return TestResult(
        median_first=m1,
        median_second=m2,
        median_diff=m1 - m2,
        u_statistic=u1,
        p_value=p,
        stars=stars_for(p),
        mode=mode,
    )


def format_cell(result: TestResult, decimals: int = 3) -> str:
    """Median difference rounded to ``decimals`` places with stars appended."""
    text = f"{result.median_diff:.{decimals}f}"
    if float(text) == 0.0:
        text = f"{0.0:.{decimals}f}"  # avoid "-0.000"
    return text + result.stars


def render_table(
    sections: Sequence[tuple[str, Sequence[tuple[str, Sequence[TestResult]]]]],
    columns: Sequence[str],
    row_header: str = "",
    decimals: int = 3,
) -> str:
    """Aligned plain-text comparison table.

    ``sections`` is a list of (section title, rows); each row is a label and
    one TestResult per column.  A star-legend footnote closes the table.
    """
    cells: list[list[str]] = []
    for _, rows in sections:
        for label, results in rows:
            cells.append([label] + [format_cell(r, decimals) for r in results])
    header = [row_header] + list(columns)
    widths = [len(h) for h in header]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def aligned(row: list[str]) -> str:
        """The label left-aligned and the cells right-aligned in their columns."""
        return "  ".join(c.ljust(widths[0]) if k == 0 else c.rjust(widths[k]) for k, c in enumerate(row))

    lines: list[str] = []
    i = 0
    for title, rows in sections:
        if title:
            lines.append(title)
        lines.append(aligned(header))
        for _ in rows:
            lines.append(aligned(cells[i]))
            i += 1
        lines.append("")
    lines.append(STAR_LEGEND)
    return "\n".join(lines)


def _lev_label(leverage: float) -> str:
    return f"{number_text(leverage)}x"


# Comparison plans are lists of (section title, rows).  A row is a label and
# the two samples it compares; a sample is (leverage, context, the group label
# EmptyGroup names when the sample has no defined values).


def _by_magnitude(leverages, sign):
    """The long (``sign`` 1) or the short (-1) leverages, by magnitude."""
    return sorted([l for l in leverages if l * sign > 0], key=abs)


def _volatility_sections(leverages, sign):
    sections = []
    for title, context in (("Negative Portfolio", Context.NEGATIVE), ("Positive Portfolio", Context.POSITIVE)):
        rows = []
        for lev_a, lev_b in combinations(_by_magnitude(leverages, sign), 2):  # each pair once, in list order
            sample_a = (lev_a, context, f"{_lev_label(lev_a)} in {title}")
            sample_b = (lev_b, context, f"{_lev_label(lev_b)} in {title}")
            rows.append((f"{_lev_label(lev_a)} = {_lev_label(lev_b)}", (sample_a, sample_b)))
        sections.append((title, rows))
    return sections


volatility_long_sections = partial(_volatility_sections, sign=1)
volatility_short_sections = partial(_volatility_sections, sign=-1)


def long_vs_inverse_sections(leverages):
    magnitudes = sorted({abs(l) for l in leverages if -l in leverages})
    rows = []
    for mag in magnitudes:
        inverse = (-mag, None, _lev_label(-mag))
        long_side = (mag, None, _lev_label(mag))
        rows.append((f"{_lev_label(-mag)} = {_lev_label(mag)}", (inverse, long_side)))
    return [("", rows)]


def context_split_sections(leverages):
    sections = []
    for title, sign in (
        ("Short ETFs tested in Negative vs Positive Portfolio", -1),
        ("Long ETFs tested in Negative vs Positive Portfolio", 1),
    ):
        rows = []
        for lev in _by_magnitude(leverages, sign):
            negative = (lev, Context.NEGATIVE, f"{_lev_label(lev)} negative context")
            positive = (lev, Context.POSITIVE, f"{_lev_label(lev)} positive context")
            rows.append((f"{_lev_label(lev)} = {_lev_label(lev)}", (negative, positive)))
        if rows:
            sections.append((title, rows))
    return sections
