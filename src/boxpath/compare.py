"""Statistical comparison of Monte Carlo histograms against analytic grids.

Model bin probabilities come from exact piecewise-linear integration of
the analytic density over the histogram bins, so the comparison measures
sampling noise plus genuine model error, not re-binning artifacts.
Reports carry an L1 distance between bin probability vectors (range 0-2),
a chi-square test with small-expectation bins pooled, and per-axis
Kolmogorov-Smirnov statistics on the marginal CDFs.
"""

from __future__ import annotations

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


def _chi2_pooled(counts: np.ndarray, probs: np.ndarray, min_expected: float = 5.0) -> tuple[float, int, float]:
    """Chi-square with bins of expected count < min_expected pooled together."""
    counts = counts.ravel().astype(float)
    n = counts.sum()
    expected = probs.ravel() * n
    small = expected < min_expected
    kept_c, kept_e = counts[~small], expected[~small]
    if small.any() and expected[small].sum() > 0:
        kept_c = np.append(kept_c, counts[small].sum())
        kept_e = np.append(kept_e, expected[small].sum())
    if kept_e.size < 2:
        return 0.0, 0, 1.0
    # scipy.special is imported on use: it is slow to import, and every CLI
    # stage imports this module.
    from scipy.special import chdtrc

    stat = float(((kept_c - kept_e) ** 2 / kept_e).sum())
    dof = kept_e.size - 1
    return stat, dof, float(chdtrc(dof, stat))


def _ks_binned(counts_1d: np.ndarray, probs_1d: np.ndarray, n: int) -> tuple[float, float]:
    from scipy.special import kolmogorov

    emp = np.cumsum(counts_1d) / max(1, counts_1d.sum())
    mod = np.cumsum(probs_1d)
    d = float(np.abs(emp - mod).max())
    return d, float(kolmogorov(np.sqrt(n) * d))


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
    chi2, dof, pval = _chi2_pooled(counts, q)
    ks = []
    for axis, name in enumerate(axes):
        others = tuple(a for a in range(q.ndim) if a != axis)
        d, kp = _ks_binned(counts.sum(axis=others), q.sum(axis=others), n_in)
        ks.append(KsResult(name, d, kp))
    return ComparisonReport(
        l1=l1,
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
