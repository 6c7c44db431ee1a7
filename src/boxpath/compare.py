"""Statistical comparison of Monte Carlo histograms against analytic grids.

Model bin probabilities come from exact piecewise-linear integration of
the analytic density over the histogram bins, so the comparison measures
sampling noise plus genuine model error, not re-binning artifacts.
Reports carry an L1 distance between bin probability vectors (range 0-2)
beside `l1_noise`, the L1 that sampling alone gives on average, a
chi-square test with small-expectation bins pooled, and per-axis
Kolmogorov-Smirnov statistics on the marginal CDFs.

Both p-values are closed forms that need only `math` and numpy.  The
chi-square survival at integer dof k is the regularized upper incomplete
gamma Q(k/2, x/2): a finite Poisson sum, plus erfc(sqrt(x/2)) when k is
odd (Abramowitz & Stegun 26.4.4, 26.4.5).  The Kolmogorov survival is
one of two theta series that each converge in a few terms (Marsaglia,
Tsang & Wang, J. Stat. Softw. 8, 2003).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .density import GridDensity, GridDensity1D, bin_masses_1d, bin_masses_3d
from .errors import EmptyCellError, IncompatibleGridError
from .montecarlo import JointHistogram

__all__ = [
    "ComparisonReport",
    "KsResult",
    "compare_joint",
    "compare_length",
]


@dataclass(frozen=True)
class KsResult:
    axis: str
    statistic: float
    pvalue: float


@dataclass(frozen=True)
class ComparisonReport:
    """Distances between one empirical histogram and one analytic density."""

    l1: float
    l1_noise: float
    chi2: float
    dof: int
    chi2_pvalue: float
    ks: tuple[KsResult, ...]
    n_samples: int
    n_bins: int
    in_range_fraction: float

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ks"] = list(d["ks"])  # JSON-shaped: lists, not tuples
        return d


def _chi2_sf(dof: int, x: float) -> float:
    """P(chi2 with `dof` degrees of freedom > x): Q(dof/2, x/2) as a finite sum.

    Each term e^(-y) y^a / Gamma(a + 1), with a = j or j + 1/2 for
    j < dof // 2, is at most 1 and is taken as the exp of its log, so none
    overflows.  Rounding in that log bounds the relative error, about
    3e-13 at dof 600.
    """
    y = 0.5 * x
    if y <= 0:
        return 1.0
    h = 0.5 * (dof % 2)
    log_y = math.log(y)
    terms = math.fsum(math.exp((j + h) * log_y - y - math.lgamma(j + h + 1)) for j in range(dof // 2))
    return min(1.0, terms + (math.erfc(math.sqrt(y)) if h else 0.0))


_KS_TERMS = np.arange(1, 7)  # either series is exact to double precision by its sixth term


def _kolmogorov_sf(y: float) -> float:
    """P(sqrt(n) D_n > y) for large n: Kolmogorov's limit law."""
    if y <= 0:
        return 1.0
    k = _KS_TERMS
    if y >= 1:
        return float(2 * np.sum((-1.0) ** (k - 1) * np.exp(-2 * k**2 * y**2)))
    theta = np.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8 * y**2)).sum()
    return float(1 - math.sqrt(2 * math.pi) / y * theta)


def _chi2_pooled(counts: np.ndarray, probs: np.ndarray, min_expected: float = 5.0) -> tuple[float, int, float]:
    """Chi-square with bins of expected count < min_expected pooled together.

    Counts where the model puts no mass at all make chi2 infinite.
    """
    counts = counts.ravel().astype(float)
    n = counts.sum()
    expected = probs.ravel() * n
    small = expected < min_expected
    kept_c, kept_e = counts[~small], expected[~small]
    pooled_c, pooled_e = counts[small].sum(), expected[small].sum()
    if pooled_e > 0:
        kept_c, kept_e = np.append(kept_c, pooled_c), np.append(kept_e, pooled_e)
    elif pooled_c > 0:
        return math.inf, kept_e.size, 0.0
    if kept_e.size < 2:
        return 0.0, 0, 1.0
    stat = float(((kept_c - kept_e) ** 2 / kept_e).sum())
    dof = kept_e.size - 1
    return stat, dof, _chi2_sf(dof, stat)


def _ks_binned(counts_1d: np.ndarray, probs_1d: np.ndarray, n: int) -> tuple[float, float]:
    emp = np.cumsum(counts_1d) / max(1, counts_1d.sum())
    mod = np.cumsum(probs_1d)
    d = float(np.abs(emp - mod).max())
    return d, _kolmogorov_sf(math.sqrt(n) * d)


def _compare(
    q: np.ndarray, counts: np.ndarray, n_in: int, n_samples: int, axes: tuple[str, ...], empty: str
) -> ComparisonReport:
    """Distances between in-range `counts` and the model bin masses `q`, one KS test per named axis."""
    q = np.clip(q, 0.0, None)
    if q.sum() <= 0:
        raise IncompatibleGridError("analytic density has no mass over the histogram bins")
    if q.shape != counts.shape:
        raise IncompatibleGridError(f"bin shapes differ: {q.shape} vs {counts.shape}")
    q = q / q.sum()
    if n_in == 0:
        raise EmptyCellError(empty, 0)
    p = counts.astype(float) / n_in
    l1 = float(np.abs(p - q).sum())
    # E|p_i - q_i| of a binomial bin, in its normal approximation
    l1_noise = float(np.sqrt(2 * q * (1 - q) / (math.pi * n_in)).sum())
    chi2, dof, pval = _chi2_pooled(counts, q)
    ks = []
    for axis, name in enumerate(axes):
        others = tuple(a for a in range(q.ndim) if a != axis)
        d, kp = _ks_binned(counts.sum(axis=others), q.sum(axis=others), n_in)
        ks.append(KsResult(name, d, kp))
    return ComparisonReport(
        l1=l1,
        l1_noise=l1_noise,
        chi2=chi2,
        dof=dof,
        chi2_pvalue=pval,
        ks=tuple(ks),
        n_samples=n_samples,
        n_bins=int(q.size),
        in_range_fraction=n_in / max(1, n_samples),
    )


def compare_joint(hist: JointHistogram, density: GridDensity) -> ComparisonReport:
    """Compare a pooled class histogram with an analytic joint density."""
    q = bin_masses_3d(density, hist.n_edges, hist.u_edges, hist.v_edges)
    empty = "histogram holds no in-range samples"
    return _compare(q, hist.counts, hist.in_range, hist.total, ("n", "u", "v"), empty)


def compare_length(
    edges: np.ndarray, counts: np.ndarray, density: GridDensity1D
) -> ComparisonReport:
    """Compare a 1-d length histogram with an analytic length density."""
    n_in = int(counts.sum())
    return _compare(bin_masses_1d(density, edges), counts, n_in, n_in, ("n",), "length histogram is empty")
