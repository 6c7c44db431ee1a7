"""Face-entry ray model: exit pdfs, joints and length marginals."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from boxpath import BoxDims, IndexTriple, PairKind, canonical_classes, chords, compare, rays
from boxpath.geometry import FaceId, IndexTriple, Side

IDX = IndexTriple(1, 2, 3)


def grid_l1_2d(a, b) -> float:
    assert a.values.shape == b.values.shape
    diff = np.abs(a.values - b.values)
    inner = np.trapezoid(diff, a.nodes(1), axis=1)
    return float(0.5 * np.trapezoid(inner, a.nodes(0)))


def line_l1(a, b, lo, hi, n=500) -> float:
    x = np.linspace(lo, hi, n)
    return float(0.5 * np.trapezoid(np.abs(a.interp(x) - b.interp(x)), x))


# ---------------------------------------------------------------------------
# exit pdfs


def test_opposing_exit_mass_cube(cube):
    pdf = rays.exit_pdf_opposing(cube, IDX)
    assert pdf.mass == pytest.approx(1.0 / 12.0, abs=1e-6)
    assert pdf.density.integral() == pytest.approx(1.0, abs=1e-9)


def test_adjacent_exit_mass_cube(cube):
    pdf = rays.exit_pdf_adjacent(cube, IDX)
    assert pdf.mass == pytest.approx(11.0 / 48.0, abs=5e-4)


def test_exit_masses_sum_to_one_cube(cube):
    total = rays.exit_pdf_opposing(cube, IDX).mass + 4 * rays.exit_pdf_adjacent(cube, IDX).mass
    assert total == pytest.approx(1.0, abs=2e-3)


def test_exit_masses_sum_to_one_slab(slab):
    total = rays.exit_pdf_opposing(slab, IndexTriple(1, 2, 3)).mass
    for i, j, k in ((3, 2, 1), (1, 2, 3)):
        total += 2 * rays.exit_pdf_adjacent(slab, IndexTriple(i, j, k)).mass
    assert total == pytest.approx(1.0, abs=2e-3)


def test_opposing_exit_pdf_centrally_symmetric(skew_box):
    pdf = rays.exit_pdf_opposing(skew_box, IDX, 65, 65)
    vals = pdf.density.values
    assert np.allclose(vals, vals[::-1, ::-1], atol=1e-12)


# ---------------------------------------------------------------------------
# joints and marginals


@pytest.fixture(scope="module")
def cube_joints(cube):
    jo = rays.joint_pdf_opposing(cube, IDX, 64, 64, 64)
    ja = rays.joint_pdf_adjacent(cube, IDX, 64, 64, 64)
    return jo, ja


def test_joint_masses_match_exit_masses(cube, cube_joints):
    jo, ja = cube_joints
    assert jo.mass == pytest.approx(1.0 / 12.0, rel=1e-2)
    assert ja.mass == pytest.approx(11.0 / 48.0, rel=2e-2)


def test_joint_location_marginal_matches_exit_pdf(cube, cube_joints):
    jo, ja = cube_joints
    eo = rays.exit_pdf_opposing(cube, IDX, 64, 64)
    sheet = jo.density.integrate_out(0)
    assert grid_l1_2d(sheet, eo.density) <= 0.01
    ea = rays.exit_pdf_adjacent(cube, IDX, 64, 64)
    sheet = ja.density.integrate_out(0)
    assert grid_l1_2d(sheet, ea.density) <= 0.03


def test_joint_length_marginal_matches_dedicated(cube, cube_joints):
    jo, ja = cube_joints
    lm = rays.length_marginal_opposing(cube, IDX, 513).normalized()
    assert line_l1(lm, jo.density.integrate_out(2).integrate_out(1), 1.0, np.sqrt(3.0)) <= 0.01
    lma = rays.length_marginal_adjacent(cube, IDX, 513, 512, 256).normalized()
    assert line_l1(lma, ja.density.integrate_out(2).integrate_out(1), 0.0, np.sqrt(3.0)) <= 0.03


def test_adjacent_marginal_zero_length_limit(skew_box):
    """12 X_k f(0) is the scale-free constant C of the n -> 0 limit.

    As n -> 0 the box is infinite on the scale of n, so C is the integral
    of depth / reach^3 over the unit quarter sphere {e > 0, depth > 0}.
    Projected radially onto the cube [-1, 1]^3, that is the integral of
    x_3 / |x| over the cube's surface where x_2 > 0 and x_3 > 0.
    """
    k = 1024
    u = (np.arange(k) + 0.5) / k  # midpoints on [0, 1]
    x = 2.0 * u - 1.0  # midpoints on [-1, 1]
    top = (1.0 / np.sqrt(x[:, None] ** 2 + u[None, :] ** 2 + 1.0)).sum()  # x_3 = 1
    back = (u[None, :] / np.sqrt(x[:, None] ** 2 + 1.0 + u[None, :] ** 2)).sum()  # x_2 = 1
    side = (u[None, :] / np.sqrt(1.0 + u[:, None] ** 2 + u[None, :] ** 2)).sum()  # x_1 = 1, as x_1 = -1
    # cells are 2/k^2 on the two half faces and 1/k^2 on each quarter face
    c_const = ((top + back) * 2.0 + side * 2.0) / (k * k)
    assert c_const == pytest.approx(3.09356, abs=1e-5)
    idx = IndexTriple(1, 3, 2)
    f0 = rays.length_marginal_adjacent(skew_box, idx, 9, 1024).values[0]
    assert 12.0 * skew_box.dim(idx.k) * f0 == pytest.approx(c_const, abs=2e-5)


def test_adjacent_marginal_mass_cube(cube):
    """The length marginal carries the closed-form adjacent face-exit mass 11/48."""
    assert rays.length_marginal_adjacent(cube, IDX, 257, 256).integral() == pytest.approx(11.0 / 48.0, abs=1e-5)


def test_adjacent_marginal_memory_is_blocked(slab):
    """Temporaries scale with a block of length nodes, not with the whole grid.

    At 1025 length nodes one (length, panel, node) array of the elevation
    panels is 1.6 MB; the blocked kernel peaked at about 0.6 MB under
    tracemalloc.
    """
    tracemalloc.start()
    try:
        rays.length_marginal_adjacent(slab, IDX, 1025, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_opposing_marginal_memory_is_blocked(slab):
    """As for the adjacent marginal: at 1025 length nodes the blocked kernel
    peaked at about 0.2 MB under tracemalloc."""
    tracemalloc.start()
    try:
        rays.length_marginal_opposing(slab, IDX, 1025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_opposing_support_starts_at_gap(cube, cube_joints):
    jo, _ = cube_joints
    assert jo.density.domain[0][0] == pytest.approx(1.0)
    assert jo.density.domain[0][1] == pytest.approx(np.sqrt(3.0))


@pytest.mark.parametrize("model", [rays, chords], ids=["rays", "chords"])
def test_joints_are_bitwise_equal_across_a_length_block_boundary(model, monkeypatch):
    """At 70 length nodes a joint spans two `rays._BLOCK` blocks; one block of 128 gives the same bytes."""
    box = BoxDims(1.3, 0.8, 1.1)
    for joint in (model.joint_pdf_opposing, model.joint_pdf_adjacent):
        blocked = joint(box, IDX, 70, 9, 7)
        monkeypatch.setattr(rays, "_BLOCK", 128)
        whole = joint(box, IDX, 70, 9, 7)
        monkeypatch.undo()
        assert np.array_equal(blocked.density.values, whole.density.values)
        assert blocked.mass == whole.mass


def test_joints_match_sampling(cube, cube_joints, rays_batch_cube):
    from boxpath import canonical_histograms

    jo, ja = cube_joints
    hists = canonical_histograms(rays_batch_cube, 8, 8, 8)
    rep = compare.compare_joint(hists["opposing-entry2"], jo.density)
    assert rep.l1 <= 0.08
    assert rep.in_range_fraction == pytest.approx(1.0, abs=1e-3)
    rep = compare.compare_joint(hists["adjacent-entry2-exit1"], ja.density)
    assert rep.l1 <= 0.05


# ---------------------------------------------------------------------------
# exactness of the closed kernels against adaptive quadrature

QUAD_BOXES = [(1.0, 1.0, 1.0), (1.0, 0.1, 1.0), (0.2, 1.0, 0.2), (1.3, 0.8, 1.1)]
QUAD_IDS = ["cube", "slab", "rod", "skew"]


def frames(dims):
    """(X_i, X_j, X_k) for each entry axis j of the box."""
    return [(dims[(j + 1) % 3], dims[j], dims[(j + 2) % 3]) for j in range(3)]


def piecewise_quad(f, points, lo, hi):
    """int_lo^hi f, by `quad` on each piece between the breakpoints that fall in [lo, hi]."""
    pts = np.unique(np.clip([lo, hi, *points], lo, hi))
    return sum(quad(f, p, q, epsabs=0.0, epsrel=1e-13, limit=200)[0] for p, q in zip(pts[:-1], pts[1:]))


def opposing_slice_quad(n, a, b, xi, xj, xk):
    """The weight 1 / max(X_j, r|sin|, r|cos|)^3 over the angle of the whole circle, inside points only."""
    r = np.sqrt(n * n - xj * xj)

    def f(psi):
        x, y = a + r * np.cos(psi), b + r * np.sin(psi)
        return (0.0 <= x <= xi and 0.0 <= y <= xk) / max(xj, r * abs(np.sin(psi)), r * abs(np.cos(psi))) ** 3

    # where the circle crosses a side's line, where r|cos| or r|sin| meets X_j, and the diagonals
    half = [np.arccos(d / r) for d in (a, xi - a, b, xk - b, xj) if d < r]
    points = [c + s * h for c in np.arange(5) * 0.5 * np.pi for h in half for s in (-1, 1)]
    return xj * n * piecewise_quad(f, points + list(np.arange(8) * 0.25 * np.pi), 0.0, 2.0 * np.pi) / (12.0 * xi * xk)


def adjacent_slice_quad(n, a, e, xi, xj, xk):
    """The weight depth / max(e, rho|sin|, depth)^3 over the angle of the half circle, inside points only."""
    if e >= n:
        return 0.0
    rho = np.sqrt(n * n - e * e)

    def f(phi):
        x, depth = a - rho * np.sin(phi), rho * np.cos(phi)
        return (0.0 <= x <= xi and depth <= xk) * depth / max(e, rho * abs(np.sin(phi)), depth) ** 3

    points = [s * np.arcsin(d / rho) for d in (a, xi - a, e) if d < rho for s in (-1, 1)]
    points += [s * np.arccos(d / rho) for d in (xk, e) if d < rho for s in (-1, 1)]
    return n * piecewise_quad(f, points + [-0.25 * np.pi, 0.0, 0.25 * np.pi], -0.5 * np.pi, 0.5 * np.pi) / (12.0 * xi * xk)


def opposing_slices(n, a, b, xi, xj, xk):
    """`joint_pdf_opposing`'s values: its arc cumulative and constant on `rays._slice`."""
    return xj / (12.0 * xi * xk) * rays._slice(PairKind.OPPOSING, rays._opposing_arc, n, a, b, xi, xj, xk)


def adjacent_slices(n, a, e, xi, xj, xk):
    """`joint_pdf_adjacent`'s values: its arc cumulative and constant on `rays._slice`."""
    return rays._slice(PairKind.ADJACENT, rays._adjacent_arc, n, a, e, xi, xj, xk) / (12.0 * xi * xk)


def assert_close(closed, ref, rel=1e-10):
    closed, ref = np.asarray(closed), np.asarray(ref)
    assert np.all(np.abs(closed - ref) <= rel * np.abs(ref) + 1e-14 * ref.max())


@pytest.mark.parametrize("dims", QUAD_BOXES, ids=QUAD_IDS)
def test_opposing_slices_match_quad(dims):
    """Random, edge and corner exits; at n = X_j the arcs take their r -> 0 limit."""
    rng = np.random.default_rng(31)
    for xi, xj, xk in frames(dims):
        diag = float(np.sqrt(xi * xi + xj * xj + xk * xk))
        n = rng.uniform(xj, diag, 12)
        a = np.concatenate([rng.uniform(0.0, xi, 8), [0.0, xi, 0.0, xi]])
        b = np.concatenate([rng.uniform(0.0, xk, 8), [0.3 * xk, 0.0, 0.0, xk]])
        ref = [opposing_slice_quad(*node, xi, xj, xk) for node in zip(n, a, b)]
        assert_close(opposing_slices(n, a, b, xi, xj, xk), ref)
        # n = X_j: 2 pi inside the face, pi on an edge and pi/2 at a corner, all at weight 1 / X_j^3
        limit = opposing_slices(xj, np.array([0.5 * xi, 0.0, xi]), np.array([0.5 * xk, 0.5 * xk, xk]), xi, xj, xk)
        assert_close(limit, np.array([2.0, 1.0, 0.5]) * np.pi / (12.0 * xi * xj * xk))


@pytest.mark.parametrize("dims", QUAD_BOXES, ids=QUAD_IDS)
def test_adjacent_slices_match_quad(dims):
    """Random exits, exits on the side edges, on the shared edge e = 0 and just below e = n."""
    rng = np.random.default_rng(32)
    for xi, xj, xk in frames(dims):
        diag = float(np.sqrt(xi * xi + xj * xj + xk * xk))
        n = rng.uniform(0.0, diag, 14)
        a = np.concatenate([rng.uniform(0.0, xi, 8), [0.0, xi, 0.0, xi, 0.4 * xi, 0.6 * xi]])
        e = np.concatenate([rng.uniform(0.0, np.minimum(n[:8], xj)), [0.5, 0.5, 0.0, 0.0, 0.0, 0.999] * np.minimum(n[8:], xj)])
        ref = [adjacent_slice_quad(*node, xi, xj, xk) for node in zip(n, a, e)]
        assert_close(adjacent_slices(n, a, e, xi, xj, xk), ref)
        assert np.all(adjacent_slices(n[:4], a[:4], n[:4], xi, xj, xk) == 0.0)


def overlap_kernel(u, alpha, width):
    """Density of x + alpha t at u in [0, width], for x ~ U(0, width), t ~ U(-1, 1)."""
    return 0.5 * (min(1.0, u / alpha) + min(1.0, (width - u) / alpha)) / width


@pytest.mark.parametrize("dims", QUAD_BOXES, ids=QUAD_IDS)
def test_exit_maps_match_quad_over_slope(dims):
    """Every node of both exit maps (the adjacent e = 0 column aside) against `quad` over the slope s."""
    box = BoxDims(*dims)
    for j in (1, 2, 3):
        idx = IndexTriple(j % 3 + 1, j, (j + 1) % 3 + 1)
        xi, xj, xk = box.dim(idx.i), box.dim(idx.j), box.dim(idx.k)
        opp = rays.exit_pdf_opposing(box, idx, 9, 7)
        closed = opp.mass * opp.density.values
        ref = np.array(
            [
                [
                    piecewise_quad(
                        lambda s: overlap_kernel(a, xj / s, xi) * overlap_kernel(b, xj / s, xk),
                        [xj / p for p in (a, xi - a, b, xk - b) if p > 0],
                        0.0,
                        1.0,
                    )
                    for b in opp.density.nodes(1)
                ]
                for a in opp.density.nodes(0)
            ]
        )
        assert np.abs(closed - ref).max() <= 1e-12 * ref.max()
        adj = rays.exit_pdf_adjacent(box, idx, 9, 7)
        closed = adj.mass * adj.density.values[:, 1:]
        ref = np.array(
            [
                [
                    piecewise_quad(
                        lambda s: min(1.0, (xk * s / e) ** 2) / (4.0 * xk * s) * overlap_kernel(a, e / s, xi),
                        [e / p for p in (a, xi - a, xk) if p > 0],
                        0.0,
                        1.0,
                    )
                    for e in adj.density.nodes(1)[1:]
                ]
                for a in adj.density.nodes(0)
            ]
        )
        assert np.abs(closed - ref).max() <= 1e-12 * ref.max()


def distinct_classes(dims, kind):
    """(X_i, X_j, X_k) of each canonical class of `kind` with its own length law."""
    box = BoxDims(*dims)
    return sorted({tuple(box.dim(a) for a in cls.indices.as_tuple) for cls in canonical_classes() if cls.kind is kind})


def quad_with_points(f, points, lo, hi, epsrel):
    return quad(f, lo, hi, points=sorted({p for p in points if lo < p < hi}) or None, epsabs=0.0, epsrel=epsrel, limit=200)[0]


def opposing_marginal_quad(n, xi, xj, xk):
    """The exit-face overlap of an in-plane offset of length r times the weight, over the whole circle."""
    r = np.sqrt(n * n - xj * xj)

    def f(psi):
        c, s = abs(math.cos(psi)), abs(math.sin(psi))
        return max(0.0, xi - r * c) * max(0.0, xk - r * s) / max(xj, r * c, r * s) ** 3

    half = [math.acos(d / r) for d in (xi, xk, xj) if d < r]
    points = [c + s * h for c in np.arange(5) * 0.5 * np.pi for h in half for s in (-1, 1)]
    return xj * n * quad_with_points(f, points + list(np.arange(8) * 0.25 * np.pi), 0.0, 2.0 * np.pi, 1e-12) / (12.0 * xi * xk)


def adjacent_marginal_quad(n, xi, xj, xk):
    """Nested: over the elevation e, of the half circle's angle phi of (X_i - rho |sin|)_+ depth / reach^3 [depth <= X_k].

    The inner integrand is even in phi, so it runs over [0, pi/2] and is doubled.
    """

    def inner(e):
        rho = math.sqrt(n * n - e * e)

        def f(phi):
            side, depth = rho * math.sin(phi), rho * math.cos(phi)
            return (depth <= xk) * max(0.0, xi - side) * depth / max(e, side, depth) ** 3

        points = [math.asin(d / rho) for d in (xi, e) if d < rho] + [math.acos(d / rho) for d in (xk, e) if d < rho]
        return 2.0 * quad_with_points(f, points + [0.25 * np.pi], 0.0, 0.5 * np.pi, 1e-11)

    sq = n * n
    kinks = [n / np.sqrt(3.0), n / np.sqrt(2.0), np.sqrt(max(0.0, sq - xi * xi - xk * xk))]
    for x in (xi, xk):
        kinks += [x, *(np.sqrt(max(0.0, v)) for v in (sq - x * x, sq - 2.0 * x * x, 0.5 * (sq - x * x)))]
    return n * quad_with_points(inner, kinks, 0.0, min(xj, n), 1e-9) / (12.0 * xi * xk)


def marginal_nodes(rng, lo, xi, xj, xk):
    """A random length and two just past kinks, at sqrt(a X_i^2 + b X_j^2 + c X_k^2) for a, b, c in 0..2."""
    diag = float(np.sqrt(xi * xi + xj * xj + xk * xk))
    kinks = {np.sqrt(a * xi * xi + b * xj * xj + c * xk * xk) for a in range(3) for b in range(3) for c in range(3)}
    past = sorted(k + 1e-6 * diag for k in kinks if lo < k + 1e-6 * diag < diag)
    return np.concatenate([rng.uniform(lo, diag, 1), rng.choice(past, min(2, len(past)), replace=False)])


@pytest.mark.parametrize("dims", QUAD_BOXES, ids=QUAD_IDS)
def test_opposing_marginal_matches_quad(dims):
    rng = np.random.default_rng(41)
    for xi, xj, xk in distinct_classes(dims, PairKind.OPPOSING):
        box = BoxDims(xi, xj, xk)
        peak = rays.length_marginal_opposing(box, IDX, 65).values.max()
        n = marginal_nodes(rng, xj, xi, xj, xk)
        ref = np.array([opposing_marginal_quad(v, xi, xj, xk) for v in n])
        assert np.abs(rays._opposing_values(n, xi, xj, xk) - ref).max() <= 1e-7 * peak


@pytest.mark.parametrize("dims", QUAD_BOXES, ids=QUAD_IDS)
def test_adjacent_marginal_matches_quad(dims):
    rng = np.random.default_rng(42)
    for xi, xj, xk in distinct_classes(dims, PairKind.ADJACENT):
        box = BoxDims(xi, xj, xk)
        peak = rays.length_marginal_adjacent(box, IDX, 65).values.max()
        n = marginal_nodes(rng, 0.0, xi, xj, xk)
        ref = np.array([adjacent_marginal_quad(v, xi, xj, xk) for v in n])
        assert np.abs(rays._adjacent_values(n, xi, xj, xk) / (6.0 * xk) - ref).max() <= 1e-7 * peak


@pytest.mark.parametrize("dims", QUAD_BOXES, ids=QUAD_IDS)
def test_marginal_panels_resolve_every_kink(dims, monkeypatch):
    """With every kink a panel end, each panel's integrand is smooth, and at 1999
    lengths per class the rule agrees with 40 nodes per panel within 2e-8 of the
    peak (6.4e-9 measured).  Leaving out any one of the panel ends costs
    between 2.8e-8 and 3e-3 of the peak, in a band of lengths that the few
    nodes of the quad tests can miss."""
    for kind, values in ((PairKind.OPPOSING, rays._opposing_values), (PairKind.ADJACENT, rays._adjacent_values)):
        for xi, xj, xk in distinct_classes(dims, kind):
            lo = xj if kind is PairKind.OPPOSING else 0.0
            n = np.linspace(lo, np.sqrt(xi * xi + xj * xj + xk * xk), 2001)[1:-1]
            rule = values(n, xi, xj, xk)
            monkeypatch.setattr(rays, "_MARGINAL_NODES", 40)
            fine = values(n, xi, xj, xk)
            monkeypatch.undo()
            assert np.abs(rule - fine).max() <= 2e-8 * fine.max()


@pytest.mark.parametrize("dims", [(1.0, 1.0, 1.0), (1.0, 0.1, 1.0)], ids=["cube", "slab"])
def test_opposing_edge_node_is_hat_average(dims):
    """The n = X_j node is int f phi_0 / int phi_0 over the first cell, which f(X_j) is not."""
    box = BoxDims(*dims)
    xi, xj, xk = box.dim(1), box.dim(2), box.dim(3)
    law = rays.length_marginal_opposing(box, IDX, 257)
    h = law.spacing
    hat = quad(lambda v: opposing_marginal_quad(v, xi, xj, xk) * (1.0 - (v - xj) / h), xj, xj + h, epsabs=0.0, epsrel=1e-10)[0]
    assert law.values[0] == pytest.approx(hat / (0.5 * h), rel=1e-9)
    np.testing.assert_allclose(law.values[1:], rays._opposing_values(law.nodes[1:], xi, xj, xk), rtol=1e-13)
    assert abs(law.values[0] - rays._opposing_values(law.nodes[:1], xi, xj, xk)[0]) > 1e-3 * law.values[0]


def test_cube_opposing_exit_mass_is_exact(cube):
    assert rays.exit_pdf_opposing(cube, IDX, 65, 65).mass == pytest.approx(1.0 / 12.0, abs=1e-12)
