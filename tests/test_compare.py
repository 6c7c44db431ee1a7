"""Distance reports between histograms and gridded densities."""

import json
import math

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
    return GridDensity(d.domain, vals / d.integral())


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
    edges = np.linspace(1.0, 2.0, 65)
    with pytest.raises(IncompatibleGridError, match="bin shapes differ"):
        compare.compare_length(edges, np.ones(63, dtype=np.int64), d.integrate_out(2).integrate_out(1))


def test_length_comparison():
    d = make_density()
    marg = d.integrate_out(2).integrate_out(1)
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
    with pytest.raises(EmptyCellError):
        compare.compare_joint(empty, d)
    with pytest.raises(EmptyCellError):
        compare.compare_length(h.n_edges, np.zeros(h.n_edges.size - 1), d.integrate_out(2).integrate_out(1))


def test_report_round_trips_json():
    d = make_density()
    h = hist_from_density(d, 50_000, 9)
    rep = compare.compare_joint(h, d)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back == rep.to_dict()
    assert {"l1", "chi2", "chi2_pvalue", "dof", "ks", "n_samples"} <= set(back)


def test_chi2_counts_where_the_model_has_no_mass():
    # 40 of 140 samples lie where the law puts no mass: pooling must keep them
    assert compare._chi2_pooled(np.array([100, 0, 40]), np.array([1.0, 0.0, 0.0])) == (math.inf, 1, 0.0)
    # an empty bin of zero expectation adds nothing
    stat, dof, pval = compare._chi2_pooled(np.array([50, 50, 0]), np.array([0.5, 0.5, 0.0]))
    assert (stat, dof, pval) == (0.0, 1, 1.0)
    # small bins of zero and nonzero expectation pool into one bin
    stat, dof, pval = compare._chi2_pooled(np.array([500, 495, 3, 2]), np.array([0.5, 0.497, 0.003, 0.0]))
    assert dof == 2 and stat == pytest.approx(2**2 / 497 + 2**2 / 3)


def test_l1_noise_is_the_mean_l1_of_replicates():
    """400 multinomial draws from the model itself: their mean L1 is the floor."""
    d = make_density()
    edges = [np.linspace(lo, hi, 7) for lo, hi in d.domain]
    q = bin_masses_3d(d, *edges)
    q = q / q.sum()
    rng = np.random.default_rng(11)
    n = 10_000
    l1s, floors = [], set()
    for counts in rng.multinomial(n, q.ravel(), size=400):
        h = JointHistogram(PairKind.OPPOSING, (1, 2, 3), *edges, counts.reshape(q.shape).astype(np.uint64), n)
        rep = compare.compare_joint(h, d)
        l1s.append(rep.l1)
        floors.add(rep.l1_noise)
    (floor,) = floors
    assert floor == pytest.approx(np.sqrt(2 * q * (1 - q) / (np.pi * n)).sum())
    assert np.mean(l1s) == pytest.approx(floor, rel=0.03)


def test_chi2_sf_matches_scipy():
    from scipy.special import chdtrc, chdtri

    worst = 0.0
    for dof in range(1, 601):
        tails = chdtri(dof, [1e-3, 1e-30, 1e-100, 1e-200, 1e-290])
        xs = np.concatenate([[0.0, 1e-9, 0.01, dof / 4, dof - 1, dof, dof + 1, 2 * dof], tails])
        ref = chdtrc(dof, xs)
        ours = np.array([compare._chi2_sf(dof, x) for x in xs])
        live = ref >= 1e-300
        assert live.sum() >= 10
        worst = max(worst, float((np.abs(ours - ref)[live] / ref[live]).max()))
    assert worst <= 1e-12


def test_chi2_sf_stays_in_unit_interval():
    xs = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1e300, 200)])
    for dof in (1, 2, 3, 4, 51, 600, 601, 5000):
        ps = np.array([compare._chi2_sf(dof, x) for x in xs])
        assert ((ps >= 0.0) & (ps <= 1.0)).all()
        assert (np.diff(ps) <= 0.0).all()
        assert ps[0] == 1.0 and ps[-1] == 0.0


def test_kolmogorov_sf_matches_scipy():
    from scipy.special import kolmogorov

    ys = np.concatenate([[1e-6, 0.01, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)], np.linspace(0.0, 6.0, 6001)[1:]])
    ours = np.array([compare._kolmogorov_sf(y) for y in ys])
    assert np.abs(ours - kolmogorov(ys)).max() <= 1e-14
    assert compare._kolmogorov_sf(0.0) == 1.0
