"""Surface-chord model: conditional, pair and joint laws."""

import numpy as np
import pytest

from scipy import integrate

from boxpath import (
    FACE_PAIRS,
    BoxDims,
    FaceId,
    GridDensity,
    IndexTriple,
    PairKind,
    Side,
    canonical_classes,
    chords,
    combined,
    rays,
)
from boxpath.density import GridDensity1D

IDX = IndexTriple(1, 2, 3)


def quadrature_oracle(box, kind, idx, exit_uv, edges):
    """Bin masses of the conditional length law via direct midpoint quadrature.

    Integrates over the uniform entry coordinates on the entry face with a
    dense midpoint grid, fully independent of the arc kernel.
    """
    xi, xj, xk = box.dim(idx.i), box.dim(idx.j), box.dim(idx.k)
    m = 1200
    a = (np.arange(m) + 0.5) * (xi / m)
    if kind is PairKind.OPPOSING:
        b = (np.arange(m) + 0.5) * (xk / m)
        n = np.sqrt((exit_uv[0] - a[:, None]) ** 2 + xj**2 + (exit_uv[1] - b[None, :]) ** 2)
    else:
        d = (np.arange(m) + 0.5) * (xk / m)
        n = np.sqrt((exit_uv[0] - a[:, None]) ** 2 + exit_uv[1] ** 2 + d[None, :] ** 2)
    counts, _ = np.histogram(n.ravel(), bins=edges)
    return counts / n.size


def swept_inside_angle(cx, cy, r, width, height):
    """Angle of the circle ((cx, cy), r) inside [0, width] x [0, height], one scalar circle at a time.

    Cuts the circle wherever it meets a side's line and sums the arcs
    whose midpoints lie in the rectangle: a sweep, independent of the
    kernel's arccos sum.  At r = 0 it is the angle of the rectangle seen
    from the centre.
    """
    if r == 0.0:
        on_sides = (cx in (0.0, width)) + (cy in (0.0, height))
        return (2.0 * np.pi, np.pi, 0.5 * np.pi)[on_sides]
    cuts = [0.0, 2.0 * np.pi]
    for centre, lines, phase in ((cx, (0.0, width), 0.0), (cy, (0.0, height), 0.5 * np.pi)):
        for line in lines:
            cos_t = (line - centre) / r
            if abs(cos_t) <= 1.0:
                t = np.arccos(cos_t)
                cuts += [(phase + t) % (2.0 * np.pi), (phase - t) % (2.0 * np.pi)]
    cuts = np.sort(cuts)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    x, y = cx + r * np.cos(mids), cy + r * np.sin(mids)
    inside = (x >= 0.0) & (x <= width) & (y >= 0.0) & (y <= height)
    return float(np.sum(np.diff(cuts)[inside]))


def per_node_length_values(box, kind, idx, u, v, n_grid):
    """n theta_in(sqrt(n^2 - c^2)) at each (n, exit node), one node at a time; shape (n, u, v).

    The loop that the broadcast kernel replaces, with every angle from
    `swept_inside_angle`.
    """
    xi, xj, xk = box.dim(idx.i), box.dim(idx.j), box.dim(idx.k)
    out = np.zeros((n_grid.size, u.size, v.size))
    for a, uu in enumerate(u):
        for b, vv in enumerate(v):
            c, cy = (xj, vv) if kind is PairKind.OPPOSING else (vv, 0.0)
            for m, n in enumerate(n_grid):
                if n >= c:
                    out[m, a, b] = n * swept_inside_angle(uu, cy, np.sqrt(n * n - c * c), xi, xk)
    return out


KERNEL_BOXES = [(1.0, 1.0, 1.0), (1.0, 0.1, 1.0), (1.3, 0.8, 1.1)]


@pytest.mark.parametrize("dims", KERNEL_BOXES, ids=["cube", "slab", "skew"])
@pytest.mark.parametrize("kind", [PairKind.OPPOSING, PairKind.ADJACENT], ids=["opposing", "adjacent"])
def test_batched_joint_matches_per_node_loop(dims, kind):
    """Every exit node, the edges u, v = 0 and the far edge included."""
    box = BoxDims(*dims)
    n_nodes, nodes = 24, 9
    build = chords.joint_pdf_opposing if kind is PairKind.OPPOSING else chords.joint_pdf_adjacent
    joint = build(box, IDX, n_nodes, nodes, nodes)
    xi, xj, xk = box.dim(1), box.dim(2), box.dim(3)
    other = xk if kind is PairKind.OPPOSING else xj
    n_lo = xj if kind is PairKind.OPPOSING else 0.0
    u, v = np.linspace(0.0, xi, nodes), np.linspace(0.0, other, nodes)
    vals = per_node_length_values(box, kind, IDX, u, v, np.linspace(n_lo, box.diagonal, n_nodes)) / (xi * other)
    ref = GridDensity(joint.density.domain, vals).normalized().values
    assert np.max(np.abs(joint.density.values - ref)) <= 1e-12 * ref.max()


@pytest.mark.parametrize("dims", KERNEL_BOXES, ids=["cube", "slab", "skew"])
@pytest.mark.parametrize("kind", [PairKind.OPPOSING, PairKind.ADJACENT], ids=["opposing", "adjacent"])
def test_conditional_length_matches_per_node_loop(dims, kind):
    box = BoxDims(*dims)
    xi, other = box.dim(1), box.dim(3) if kind is PairKind.OPPOSING else box.dim(2)
    for uv in ((0.0, 0.0), (0.37 * xi, 0.81 * other), (xi, other)):
        dens = chords.conditional_length_pdf(box, kind, IDX, uv, 129)
        n_grid = np.linspace(dens.lo, dens.hi, 129)
        vals = per_node_length_values(box, kind, IDX, np.array([uv[0]]), np.array([uv[1]]), n_grid)
        ref = GridDensity1D(dens.lo, dens.hi, vals[:, 0, 0]).normalized().values
        assert np.max(np.abs(dens.values - ref)) <= 1e-12 * ref.max()


@pytest.mark.parametrize("dims", KERNEL_BOXES, ids=["cube", "slab", "skew"])
def test_conditional_length_is_a_joint_row(dims):
    """At an exit corner the conditional support and spacing are the joint's."""
    box = BoxDims(*dims)
    joint = chords.joint_pdf_opposing(box, IDX, 33, 5, 5)
    for a, b in ((0, 0), (-1, -1), (0, -1)):
        uv = (joint.density.nodes(1)[a], joint.density.nodes(2)[b])
        dens = chords.conditional_length_pdf(box, PairKind.OPPOSING, IDX, uv, 33)
        assert (dens.lo, dens.hi) == pytest.approx(joint.density.domain[0], rel=1e-14)
        row = GridDensity1D(dens.lo, dens.hi, joint.density.values[:, a, b]).normalized().values
        assert np.max(np.abs(dens.values - row)) <= 1e-12 * row.max()


def disk_rect_area(cx, cy, r, width, height):
    """|disk((cx, cy), r) & [0, width] x [0, height]| by a 1-d quadrature of the disk's chord widths."""
    lo, hi = max(0.0, cx - r), min(width, cx + r)
    if r <= 0.0 or hi <= lo:
        return 0.0

    def chord(x):
        half = np.sqrt(max(r * r - (x - cx) ** 2, 0.0))
        return max(0.0, min(height, cy + half) - max(0.0, cy - half))

    kinks = [cx + sign * np.sqrt(r * r - d * d) for d in (cy, height - cy) if d < r for sign in (-1.0, 1.0)]
    points = [x for x in kinks if lo < x < hi] or None
    return integrate.quad(chord, lo, hi, points=points, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


def exit_geometry(box, kind, uv):
    """(height c, centre, rectangle, side distances) of a canonical exit's arcs in the entry plane."""
    xi, xj, xk = box.dim(IDX.i), box.dim(IDX.j), box.dim(IDX.k)
    if kind is PairKind.OPPOSING:
        c, centre = xj, uv
    else:
        c, centre = uv[1], (uv[0], 0.0)
    sides = (centre[0], xi - centre[0], centre[1], xk - centre[1])
    return c, centre, (xi, xk), sides


def conditional_values(kind, n, u, v, xi, xj, xk):
    """f(n | exit) = n theta_in / (X_i X_k): the chords' angle and constant on `rays._slice`."""
    return rays._slice(kind, lambda c, r: chords._angle, n, u, v, xi, xj, xk) / (xi * xk)


@pytest.mark.parametrize("kind", [PairKind.OPPOSING, PairKind.ADJACENT], ids=["opposing", "adjacent"])
def test_conditional_values_are_the_disk_area_derivative(kind):
    """n theta_in / (W H) is d/dn of |disk & rect| / (W H), and its CDF reaches 1 at the farthest corner.

    The lengths sit inside the pieces between the arc's kinks, where a
    central difference (h = 1e-5) of the area is accurate.
    """
    rng = np.random.default_rng(41)
    h = 1e-5
    for _ in range(10):
        box = BoxDims(*rng.uniform(0.3, 1.5, 3))
        other = box.dim(IDX.k) if kind is PairKind.OPPOSING else box.dim(IDX.j)
        uv = (rng.uniform(0.05, 0.95) * box.dim(IDX.i), rng.uniform(0.05, 0.95) * other)
        c, centre, (width, height), sides = exit_geometry(box, kind, uv)
        corners = [np.hypot(a, b) for a in sides[:2] for b in sides[2:]]
        kinks = np.unique(np.hypot(c, [0.0, *sides, *corners]))
        n_far = kinks[-1]
        lengths = kinks[:-1] + rng.uniform(0.25, 0.75, kinks.size - 1) * np.diff(kinks)
        got = conditional_values(kind, lengths, *uv, *IDX.dims(box))
        for n, value in zip(lengths, got):
            area = [disk_rect_area(*centre, np.sqrt(m * m - c * c), width, height) for m in (n - h, n + h)]
            expected = (area[1] - area[0]) / (2.0 * h) / (width * height)
            assert value == pytest.approx(expected, rel=1e-4)

        def density(n):
            return conditional_values(kind, n, *uv, *IDX.dims(box))

        cdf = integrate.quad(density, c, n_far, points=kinks[1:-1], epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert cdf == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dims", KERNEL_BOXES, ids=["cube", "slab", "skew"])
def test_conditional_first_node_is_exact(dims):
    """At n = X_j the arc has radius 0: theta_in is 2 pi inside the face, pi on an edge, pi/2 at a corner."""
    box = BoxDims(*dims)
    xi, xj, xk = box.dim(1), box.dim(2), box.dim(3)
    for uv, theta in (((0.3 * xi, 0.6 * xk), 2.0 * np.pi), ((0.0, 0.6 * xk), np.pi), ((xi, xk), 0.5 * np.pi)):
        dens = chords.conditional_length_pdf(box, PairKind.OPPOSING, IDX, uv)
        raw = GridDensity1D(dens.lo, dens.hi, conditional_values(PairKind.OPPOSING, dens.nodes, *uv, *IDX.dims(box)))
        assert raw.values[0] == pytest.approx(xj * theta / (xi * xk), rel=1e-14)
        assert dens.values[0] == pytest.approx(raw.values[0] / raw.integral(), rel=1e-12)


def graded_panels(width, nodes=20, levels=12):
    """Gauss-Legendre nodes and weights on (0, width), panels graded geometrically towards 0."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.concatenate([[0.0], width * 4.0 ** -np.arange(levels, 0, -1), [width]])
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), (0.5 * (b - a) * w).ravel()


def pair_mean_oracle(box, kind, idx):
    """E[L] of a face pair by Gauss-Legendre over the offsets, independent of the chords module.

    Opposing: L = sqrt(D_i^2 + X_j^2 + D_k^2), D_c the difference of two
    U(0, X_c).  Adjacent: L = sqrt(D_i^2 + E^2 + Z^2), E ~ U(0, X_j) the
    exit elevation and Z ~ U(0, X_k) the entry depth.
    """
    xi, xj, xk = box.dim(idx.i), box.dim(idx.j), box.dim(idx.k)
    d, wd = graded_panels(xi)
    wd = wd * 2.0 * (xi - d) / xi**2
    b, wb = graded_panels(xk)
    if kind is PairKind.OPPOSING:
        wb = wb * 2.0 * (xk - b) / xk**2
        return float(wd @ np.sqrt(d[:, None] ** 2 + xj**2 + b[None, :] ** 2) @ wb)
    e, we = graded_panels(xj)
    rest = e[:, None] ** 2 + b[None, :] ** 2
    return float(sum(w * (we @ np.sqrt(x * x + rest) @ wb) for x, w in zip(d, wd)) / (xj * xk))


@pytest.mark.parametrize("dims", KERNEL_BOXES + [(0.2, 1.0, 0.2)], ids=["cube", "slab", "skew", "rod"])
@pytest.mark.parametrize("kind", [PairKind.OPPOSING, PairKind.ADJACENT], ids=["opposing", "adjacent"])
def test_pair_law_mass_and_mean_are_exact(dims, kind):
    """The pair law's node function has unit mass and the exact mean.

    The integral runs over r with n = sqrt(c^2 + r^2) (c = X_j for an
    opposing pair, 0 for an adjacent one), which takes the square-root
    edge at the opposing law's jump; `points` holds the kinks in r.
    """
    box = BoxDims(*dims)
    laws = {tuple(box.dim(a) for a in cls.indices.as_tuple): cls.indices for cls in canonical_classes() if cls.kind is kind}
    for (xi, xj, xk), indices in laws.items():
        if kind is PairKind.OPPOSING:
            c, kinks = xj, (xi, xk)
        else:
            c, kinks = 0.0, (xi, xj, xk, np.hypot(xj, xk), np.hypot(xi, xj), np.hypot(xi, xk))
        r_hi = np.sqrt(box.diagonal**2 - c * c)
        points = sorted({r for r in kinks if 0.0 < r < r_hi})

        def moment(r, power):
            n = np.hypot(c, r)
            return chords._pair_values(box, kind, indices, n) * r / n * n**power

        mass, mean = (
            integrate.quad(moment, 0.0, r_hi, args=(p,), points=points, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
            for p in (0, 1)
        )
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(pair_mean_oracle(box, kind, indices), abs=1e-12)


def binned_l1_against_oracle(dens, oracle_masses, edges) -> float:
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    return float(0.5 * np.sum(np.abs(dens.interp(centers) * widths - oracle_masses)))


@pytest.mark.parametrize("kind", [PairKind.OPPOSING, PairKind.ADJACENT])
def test_conditional_length_matches_quadrature(kind):
    rng = np.random.default_rng(21)
    for _ in range(10):
        box = BoxDims(*rng.uniform(0.3, 1.5, 3))
        xi = box.dim(IDX.i)
        other = box.dim(IDX.k) if kind is PairKind.OPPOSING else box.dim(IDX.j)
        uv = (rng.uniform(0.05, 0.95) * xi, rng.uniform(0.05, 0.95) * other)
        dens = chords.conditional_length_pdf(box, kind, IDX, uv)
        edges = np.linspace(dens.lo, dens.hi, 65)
        oracle = quadrature_oracle(box, kind, IDX, uv, edges)
        assert binned_l1_against_oracle(dens, oracle, edges) <= 0.02


def test_conditional_support_endpoints(cube):
    # the longest chord runs to the farthest entry corner
    dens = chords.conditional_length_pdf(cube, PairKind.OPPOSING, IDX, (0.3, 0.7))
    assert dens.lo == pytest.approx(1.0)  # the gap is the shortest chord
    assert dens.hi == pytest.approx(np.sqrt(1.0 + 0.7**2 + 0.7**2))
    dens = chords.conditional_length_pdf(cube, PairKind.ADJACENT, IDX, (0.3, 0.7))
    assert dens.lo == pytest.approx(0.7)  # the elevation is the shortest chord
    assert dens.hi == pytest.approx(np.sqrt(0.7**2 + 0.7**2 + 1.0))
    # an exit off its face is refused before any evaluation, on either axis and either side
    for kind, uv in ((PairKind.ADJACENT, (0.5, 1.2)), (PairKind.OPPOSING, (0.5, 1.2)), (PairKind.ADJACENT, (0.5, -0.1)), (PairKind.OPPOSING, (1.5, 0.5)), (PairKind.ADJACENT, (-0.2, 0.5))):
        with pytest.raises(ValueError, match=r"exit_uv .* off the exit face \(\(0\.0, 1\.0\), \(0\.0, 1\.0\)\)"):
            chords.conditional_length_pdf(cube, kind, IDX, uv)


def test_conditional_exit_probability(slab):
    entry = FaceId(2, Side.LOW)
    total = sum(
        chords.conditional_exit_probability(slab, entry, f)
        for f in (FaceId(2, Side.HIGH), FaceId(1, Side.LOW), FaceId(1, Side.HIGH), FaceId(3, Side.LOW), FaceId(3, Side.HIGH))
    )
    assert total == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        chords.conditional_exit_probability(slab, entry, entry)


def test_joint_mass_and_location_uniformity(cube):
    joint = chords.joint_pdf_opposing(cube, IDX, 48, 48, 48)
    assert joint.mass == pytest.approx(0.2, abs=1e-12)
    # the location marginal of the joint is flat over the face
    sheet = joint.density.integrate_out(0)
    inner = sheet.values[2:-2, 2:-2]
    assert np.max(np.abs(inner - 1.0)) <= 0.02


def test_pair_length_laws_match_sampling(cube):
    rng = np.random.default_rng(22)
    m = 500_000
    pl = chords.pair_length_pdf(cube, PairKind.OPPOSING, IDX)
    a1, b1, a2, b2 = rng.uniform(0, 1, (4, m))
    n = np.sqrt((a2 - a1) ** 2 + 1.0 + (b2 - b1) ** 2)
    counts, edges = np.histogram(n, bins=64, range=(pl.lo, pl.hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    emp = counts / m / np.diff(edges)
    l1 = 0.5 * np.sum(np.abs(emp - pl.interp(centers)) * np.diff(edges))
    assert l1 <= 0.02
    pa = chords.pair_length_pdf(cube, PairKind.ADJACENT, IDX)
    x1, d1, x2, e2 = rng.uniform(0, 1, (4, m))
    n = np.sqrt((x2 - x1) ** 2 + e2**2 + d1**2)
    counts, edges = np.histogram(n, bins=64, range=(pa.lo, pa.hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    emp = counts / m / np.diff(edges)
    l1 = 0.5 * np.sum(np.abs(emp - pa.interp(centers)) * np.diff(edges))
    assert l1 <= 0.02


def test_location_length_law_matches_cell_sampling(cube, chords_batch_cube):
    cell = (0.6, 0.3, 0.05)
    face = FaceId(2, Side.HIGH)
    joints = {}
    for pair in FACE_PAIRS:
        if pair.exit_face == face and pair.label not in joints:
            build = chords.joint_pdf_opposing if pair.kind is PairKind.OPPOSING else chords.joint_pdf_adjacent
            joints[pair.label] = build(cube, pair.indices, 64, 48, 48)
    loc = combined.location_length_pdf(joints, cube, face, cell)
    assert loc.integral() == pytest.approx(1.0, abs=1e-9)
    b = chords_batch_cube
    rows = b.exit_code == face.code
    ab = b.exit_ab[rows]
    inside = (np.abs(ab[:, 0] - cell[0]) <= cell[2]) & (np.abs(ab[:, 1] - cell[1]) <= cell[2])
    lens = b.length[rows][inside]
    assert lens.size > 1500
    counts, edges = np.histogram(lens, bins=32, range=(loc.lo, loc.hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    emp = counts / counts.sum() / np.diff(edges)
    l1 = 0.5 * np.sum(np.abs(emp - loc.interp(centers)) * np.diff(edges))
    assert l1 <= 0.08


def test_adjacent_mean_length_increases_with_elevation(cube):
    """Chords reaching higher above the shared edge are longer on average.

    The chord length to an exit at elevation e is sqrt(A + e^2) with A
    independent of e, so the conditional mean is strictly increasing.
    """
    joint = chords.joint_pdf_adjacent(cube, IDX, 64, 48, 48)
    n = joint.density.nodes(0)
    means = []
    for lo, hi in ((0.05, 0.2), (0.25, 0.4), (0.45, 0.6), (0.65, 0.8), (0.85, 1.0)):
        band = joint.density.band_integral(2, lo, hi).integrate_out(1)
        means.append(band.normalized().mean())
    assert all(b > a for a, b in zip(means, means[1:]))
    # pointwise: the law at elevation e has no support below e
    dens = chords.conditional_length_pdf(cube, PairKind.ADJACENT, IDX, (0.5, 0.8))
    assert dens.lo == pytest.approx(0.8)
