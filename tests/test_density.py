"""Gridded-density containers, projections, sums and bin masses.

Each is checked against a closed form; mass conservation is the
recurring invariant.
"""

import numpy as np
import pytest

from boxpath import GridDensity, GridDensity1D, IncompatibleGridError, NumericalError
from boxpath.density import bin_masses_1d, bin_masses_3d, convolve_sum


# ---------------------------------------------------------------------------
# containers


def uniform(lo: float, hi: float, n: int) -> GridDensity1D:
    return GridDensity1D(lo, hi, np.full(n, 1.0 / (hi - lo)))


def test_grid_density_1d_basics():
    d = uniform(1.0, 3.0, 257)
    assert d.integral() == pytest.approx(1.0, abs=1e-12)
    assert d.mean() == pytest.approx(2.0, abs=1e-12)
    assert d.interp(np.array([0.0, 2.0, 4.0])).tolist() == [0.0, 0.5, 0.0]


def test_negative_values_rejected():
    with pytest.raises(ValueError):
        GridDensity1D(0.0, 1.0, np.array([1.0, -0.5, 1.0]))
    # tiny negative noise is clamped instead
    d = GridDensity1D(0.0, 1.0, np.array([1.0, -1e-15, 1.0]))
    assert d.values.min() == 0.0


def test_normalized_rescales_to_unit_mass():
    d = GridDensity1D(0.0, 1.0, np.full(11, 2.0))
    assert np.array_equal(d.normalized().values, d.values / d.integral())
    assert d.normalized().integral() == pytest.approx(1.0, abs=1e-12)
    grid = GridDensity(((0.0, 1.0), (0.0, 2.0)), np.full((5, 3), 2.0))
    assert grid.normalized().integral() == pytest.approx(1.0, abs=1e-12)
    for empty in (GridDensity1D(0.0, 1.0, np.zeros(11)), GridDensity(((0.0, 1.0), (0.0, 1.0)), np.zeros((4, 4)))):
        with pytest.raises(NumericalError):
            empty.normalized()


def pl_first_moment(d: GridDensity1D) -> float:
    """Exact first moment of a PL density: the integral of x f(x) cell by cell."""
    x, f = d.nodes, d.values
    return float(np.sum(d.spacing / 6.0 * (2 * x[:-1] * f[:-1] + x[:-1] * f[1:] + x[1:] * f[:-1] + 2 * x[1:] * f[1:])))


@pytest.mark.parametrize("lo, hi, size", [(0.3, 1.2, 37), (0.1, 1.7, 1025), (0.0, 1.5, 101)])
def test_project_keeps_mass_and_first_moment(lo, hi, size):
    """A jump at either end of the support, between target nodes or on one."""
    rng = np.random.default_rng(size)
    law = GridDensity1D(lo, hi, rng.random(size) + 0.2)
    grid = np.linspace(0.0, 2.0, 257)
    v = law.project(grid)
    assert np.trapezoid(v, grid) == pytest.approx(law.integral(), rel=1e-12)
    assert np.trapezoid(grid * v, grid) == pytest.approx(pl_first_moment(law), rel=1e-12)
    assert np.all(v[grid < lo - (grid[1] - grid[0])] == 0.0)


def test_2d_marginals_and_band():
    u = np.linspace(0.0, 2.0, 41)
    v = np.linspace(0.0, 1.0, 21)
    vals = np.outer(2.0 - u, np.ones_like(v)) / 2.0  # triangular in u, flat in v
    d = GridDensity(((0.0, 2.0), (0.0, 1.0)), vals)
    m = d.integrate_out(1)
    assert m.integral() == pytest.approx(d.integral(), rel=1e-12)
    band = d.band_integral(1, 0.25, 0.75)
    assert band.integral() == pytest.approx(0.5 * d.integral(), rel=1e-9)


def test_3d_marginals_consistent():
    rng = np.random.default_rng(0)
    vals = rng.random((9, 8, 7)) + 0.5
    d = GridDensity(((0.0, 1.0), (0.0, 2.0), (0.0, 3.0)), vals)
    full = d.integral()
    assert d.integrate_out(0).integral() == pytest.approx(full, rel=1e-12)
    for marginal in (d.integrate_out(2).integrate_out(1), d.integrate_out(2).integrate_out(0), d.integrate_out(1).integrate_out(0)):
        assert marginal.integral() == pytest.approx(full, rel=1e-12)
    # integrating a full-range band equals integrating the axis out
    band = d.band_integral(2, 0.0, 3.0)
    assert np.allclose(band.values, d.integrate_out(2).values, atol=1e-12)


@pytest.mark.parametrize(
    "domain, shape, names",
    [
        (((0.0, 1.0), (0.0, 2.0), (0.0, 3.0)), (3, 4), None),
        (((0.0, 1.0), (0.0, 2.0)), (3, 4), ("a", "b", "c")),
        (((0.0, 1.0), (0.0, 2.0)), (3, 4, 5), None),
        (((0.0, 1.0), (0.0, 2.0), (0.0, 3.0)), (3, 4, 5), ("n", "u")),
    ],
    ids=["2d-domain3", "2d-names3", "3d-domain2", "3d-names2"],
)
def test_grid_density_rejects_rank_mismatch(domain, shape, names):
    with pytest.raises(ValueError, match="axes"):
        GridDensity(domain, np.ones(shape), names)


# ---------------------------------------------------------------------------
# convolutions


def test_sum_of_two_uniforms_is_triangular():
    f = uniform(0.0, 1.0, 513)
    tri = convolve_sum(f, f)
    assert tri.integral() == pytest.approx(1.0, abs=2e-3)
    x = np.linspace(0.05, 1.95, 301)
    exact = 1.0 - np.abs(x - 1.0)
    assert np.max(np.abs(tri.interp(x) - exact)) <= 5e-3


def test_difference_of_uniforms_is_centered_triangle():
    f = uniform(0.0, 1.0, 513)
    tri = convolve_sum(f, uniform(-1.0, 0.0, 513))
    assert tri.lo == pytest.approx(-1.0)
    assert tri.hi == pytest.approx(1.0)
    assert tri.interp(np.array([0.0]))[0] == pytest.approx(1.0, abs=5e-3)
    assert tri.mean() == pytest.approx(0.0, abs=1e-9)


def test_convolution_rejects_mismatched_spacings():
    a = uniform(0.0, 1.0, 257)
    b = uniform(0.0, 2.0, 401)
    with pytest.raises(IncompatibleGridError, match="spacings differ"):
        convolve_sum(a, b)
    # equal spacing on different supports is accepted
    s = convolve_sum(a, uniform(0.0, 2.0, 513))
    assert s.lo == pytest.approx(0.0)
    assert s.hi == pytest.approx(3.0)
    assert s.integral() == pytest.approx(1.0, abs=5e-3)


# ---------------------------------------------------------------------------
# binning


def test_bin_masses_exact_for_piecewise_linear():
    # the triangular density is itself piecewise linear, so hat-weight
    # integration over arbitrary bins is exact
    nodes = np.linspace(0.0, 2.0, 41)
    tri = GridDensity1D(0.0, 2.0, 1.0 - np.abs(nodes - 1.0))
    edges = np.array([0.0, 0.33, 0.5, 1.0, 1.37, 2.0])
    masses = bin_masses_1d(tri, edges)
    cdf = lambda x: np.where(x <= 1.0, x**2 / 2.0, 1.0 - (2.0 - x) ** 2 / 2.0)
    assert np.allclose(masses, np.diff(cdf(edges)), atol=1e-12)
    assert masses.sum() == pytest.approx(tri.integral(), abs=1e-12)


def test_bin_masses_2d_3d_total():
    rng = np.random.default_rng(3)
    rng.random((17, 19))  # advances the stream so d3 keeps the values it was written with
    d3 = GridDensity(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), rng.random((9, 9, 9)) + 0.1)
    e = np.linspace(0.0, 1.0, 4)
    m3 = bin_masses_3d(d3, e, e, e)
    assert m3.sum() == pytest.approx(d3.integral(), rel=1e-9)
    assert np.all(m3 >= 0.0)


def test_bin_masses_match_interp_quadrature():
    rng = np.random.default_rng(4)
    d = GridDensity1D(0.0, 1.0, rng.random(33) + 0.2)
    edges = np.linspace(0.0, 1.0, 11)
    masses = bin_masses_1d(d, edges)
    for i in range(10):
        x = np.linspace(edges[i], edges[i + 1], 2001)
        assert masses[i] == pytest.approx(np.trapezoid(d.interp(x), x), rel=1e-4)
