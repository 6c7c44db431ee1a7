"""Distance reports between histograms and gridded densities."""

import json

import numpy as np
import pytest

from boxpath import EmptyCellError, GridDensity, IncompatibleGridError, compare
from boxpath.density import bin_masses_3d
from boxpath.geometry import IndexTriple, PairKind
from boxpath.montecarlo import JointHistogram


def make_density(seed: int = 0) -> GridDensity:
    rng = np.random.default_rng(seed)
    vals = rng.random((16, 12, 12)) + 0.3
    d = GridDensity(((1.0, 2.0), (0.0, 1.0), (0.0, 1.0)), vals)
    return d.normalized(force=True)


def hist_from_density(density: GridDensity, n_samples: int, seed: int, bins=(8, 6, 6)) -> JointHistogram:
    edges = [np.linspace(lo, hi, b + 1) for (lo, hi), b in zip(density.domain, bins)]
    masses = bin_masses_3d(density, *edges)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_samples, (masses / masses.sum()).ravel()).reshape(masses.shape)
    return JointHistogram(
        PairKind.OPPOSING, (1, 2, 3), edges[0], edges[1], edges[2], counts.astype(np.uint64), n_samples
    )


def test_matched_density_accepted():
    d = make_density()
    h = hist_from_density(d, 400_000, 1)
    rep = compare.compare_joint(h, d)
    assert rep.l1 <= 0.02
    assert rep.chi2_pvalue > 1e-4
    assert all(k.pvalue > 1e-6 for k in rep.ks)
    assert rep.in_range_fraction == 1.0


def test_mismatched_density_rejected():
    d = make_density(0)
    wrong = make_density(99)
    h = hist_from_density(d, 400_000, 2)
    rep = compare.compare_joint(h, wrong)
    assert rep.l1 > 0.05
    assert rep.chi2_pvalue < 1e-10


def test_incompatible_domains_raise():
    d = make_density()
    h = hist_from_density(d, 1000, 3)
    shifted = GridDensity(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), d.values)
    with pytest.raises(IncompatibleGridError):
        compare.compare_joint(h, shifted)


def test_length_comparison():
    d = make_density()
    marg = d.marginal_1d(0)
    edges = np.linspace(1.0, 2.0, 65)
    rng = np.random.default_rng(4)
    from boxpath.density import bin_masses_1d

    masses = bin_masses_1d(marg, edges)
    counts = rng.multinomial(300_000, masses / masses.sum())
    rep = compare.compare_length(edges, counts, marg)
    assert rep.l1 <= 0.02
    assert rep.chi2_pvalue > 1e-4


def test_empty_cell_raises():
    d = make_density()
    h = hist_from_density(d, 1000, 8)
    empty = JointHistogram(h.kind, h.indices, h.n_edges, h.u_edges, h.v_edges, np.zeros_like(h.counts), 0)
    with pytest.raises(EmptyCellError) as info:
        compare.compare_joint(empty, d)
    assert info.value.count == 0
    with pytest.raises(EmptyCellError):
        compare.compare_length(h.n_edges, np.zeros(h.n_edges.size - 1), d.marginal_1d(0))


def test_report_round_trips_json():
    d = make_density()
    h = hist_from_density(d, 50_000, 9)
    rep = compare.compare_joint(h, d)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back == rep.to_dict()
    assert {"l1", "chi2", "chi2_pvalue", "dof", "ks", "n_samples"} <= set(back)
