"""Surface-chord model: conditional, pair and joint laws."""

import numpy as np
import pytest

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
)
from boxpath.density import GridDensity1D, convolve_sum, square_density, uniform_density

IDX = IndexTriple(1, 2, 3)


def quadrature_oracle(box, kind, idx, exit_uv, edges):
    """Bin masses of the conditional length law via direct midpoint quadrature.

    Integrates over the uniform entry coordinates on the entry face with a
    dense midpoint grid, fully independent of the convolution pipeline.
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


def squared_offset(width, target, h):
    """Density of (target - U(0, width))^2 at spacing h, by the square transform of a sampled uniform."""
    s_hi = max(target * target, (target - width) ** 2)
    m = max(2, int(np.ceil(s_hi / h)) + 1)
    return square_density(uniform_density(target - width, target, 513), s_hi=(m - 1) * h, s_nodes=m)


def squared_difference(width, h):
    """Density of (U - U')^2 for two U(0, width) at spacing h, by the square transform of their sampled difference."""
    tri = convolve_sum(uniform_density(0.0, width, 513), uniform_density(-width, 0.0, 513))
    m = max(2, int(np.ceil(width * width / h)) + 1)
    return square_density(tri, s_hi=(m - 1) * h, s_nodes=m)


def per_node_length_values(box, kind, idx, u, v, h, n_grid):
    """Length density 2n f_S(n^2 - shift) at each exit node, one node at a time.

    Each squared offset goes through the square transform of a sampled
    uniform and each exit node gets its own convolution: the loop that the
    batched kernel replaces.
    """
    xi, xj, xk = box.dim(idx.i), box.dim(idx.j), box.dim(idx.k)
    out = np.empty((n_grid.size, u.size, v.size))
    for a, uu in enumerate(u):
        for b, vv in enumerate(v):
            if kind is PairKind.OPPOSING:
                f_s, shift_sq = convolve_sum(squared_offset(xi, uu, h), squared_offset(xk, vv, h)), xj * xj
            else:
                f_s, shift_sq = convolve_sum(squared_offset(xi, uu, h), squared_offset(xk, 0.0, h)), vv * vv
            arg = n_grid * n_grid - shift_sq
            out[:, a, b] = np.where(arg >= 0.0, f_s.interp(np.maximum(arg, 0.0)), 0.0) * 2.0 * n_grid
    return out


KERNEL_BOXES = [(1.0, 1.0, 1.0), (1.0, 0.1, 1.0), (1.3, 0.8, 1.1)]


@pytest.mark.parametrize("dims", KERNEL_BOXES, ids=["cube", "slab", "skew"])
@pytest.mark.parametrize("kind", [PairKind.OPPOSING, PairKind.ADJACENT], ids=["opposing", "adjacent"])
def test_batched_joint_matches_per_node_loop(dims, kind):
    """Every exit node, the edges u, v = 0 and the far edge included."""
    box = BoxDims(*dims)
    n_nodes, nodes, s_nodes = 24, 9, 256
    build = chords.joint_pdf_opposing if kind is PairKind.OPPOSING else chords.joint_pdf_adjacent
    joint = build(box, IDX, n_nodes, nodes, nodes, s_nodes)
    xi, xj, xk = box.dim(1), box.dim(2), box.dim(3)
    other = xk if kind is PairKind.OPPOSING else xj
    n_lo = xj if kind is PairKind.OPPOSING else 0.0
    h = (xi * xi + xk * xk) / s_nodes
    u, v = np.linspace(0.0, xi, nodes), np.linspace(0.0, other, nodes)
    vals = per_node_length_values(box, kind, IDX, u, v, h, np.linspace(n_lo, box.diagonal, n_nodes)) / (xi * other)
    ref = GridDensity(joint.density.domain, vals).normalized(force=True).values
    assert np.max(np.abs(joint.density.values - ref)) <= 1e-12 * ref.max()


@pytest.mark.parametrize("dims", KERNEL_BOXES, ids=["cube", "slab", "skew"])
@pytest.mark.parametrize("kind", [PairKind.OPPOSING, PairKind.ADJACENT], ids=["opposing", "adjacent"])
def test_conditional_length_matches_per_node_loop(dims, kind):
    box = BoxDims(*dims)
    xi, xj, xk = box.dim(1), box.dim(2), box.dim(3)
    other = xk if kind is PairKind.OPPOSING else xj
    for uv in ((0.0, 0.0), (0.37 * xi, 0.81 * other), (xi, other)):
        dens = chords.conditional_length_pdf(box, kind, IDX, uv, 129, 256)
        span = max(uv[0] ** 2, (uv[0] - xi) ** 2) + (max(uv[1] ** 2, (uv[1] - xk) ** 2) if kind is PairKind.OPPOSING else xk * xk)
        n_grid = np.linspace(dens.lo, dens.hi, 129)
        vals = per_node_length_values(box, kind, IDX, np.array([uv[0]]), np.array([uv[1]]), span / 256, n_grid)
        ref = GridDensity1D(dens.lo, dens.hi, vals[:, 0, 0]).normalized(force=True).values
        assert np.max(np.abs(dens.values - ref)) <= 1e-12 * ref.max()


@pytest.mark.parametrize("dims", KERNEL_BOXES, ids=["cube", "slab", "skew"])
def test_conditional_length_is_a_joint_row(dims):
    """At an exit corner the conditional support and spacing are the joint's."""
    box = BoxDims(*dims)
    joint = chords.joint_pdf_opposing(box, IDX, 33, 5, 5, 256)
    for a, b in ((0, 0), (-1, -1), (0, -1)):
        uv = (joint.density.nodes(1)[a], joint.density.nodes(2)[b])
        dens = chords.conditional_length_pdf(box, PairKind.OPPOSING, IDX, uv, 33, 256)
        assert (dens.lo, dens.hi) == pytest.approx(joint.density.domain[0], rel=1e-14)
        row = GridDensity1D(dens.lo, dens.hi, joint.density.values[:, a, b]).normalized(force=True).values
        assert np.max(np.abs(dens.values - row)) <= 1e-12 * row.max()


@pytest.mark.parametrize("width", [1.0, 0.1, 1.3], ids=["w1", "w0.1", "w1.3"])
@pytest.mark.parametrize("h", [2.0 / 2048, 1.0 / 300], ids=["fine", "coarse"])
def test_difference_row_matches_square_transform(width, h):
    """The closed-form (U - U')^2 row, its first-cell node included."""
    row = chords._difference_density(width, h)
    ref = squared_difference(width, h)
    assert (row.lo, row.hi, row.size) == (ref.lo, ref.hi, ref.size)
    assert np.max(np.abs(row.values - ref.values)) <= 1e-12 * ref.values.max()


def toolkit_pair_length_values(box, kind, idx, n_nodes, s_nodes):
    """`pair_length_pdf` with every squared offset built by the square transform."""
    xi, xj, xk = box.dim(idx.i), box.dim(idx.j), box.dim(idx.k)
    if kind is PairKind.OPPOSING:
        h = (xi * xi + xk * xk) / s_nodes
        f_s, shift_sq, n_lo = convolve_sum(squared_difference(xi, h), squared_difference(xk, h)), xj * xj, xj
    else:
        h = (xi * xi + xj * xj + xk * xk) / s_nodes
        f_s = convolve_sum(squared_difference(xi, h), squared_offset(xj, 0.0, h))
        f_s = convolve_sum(f_s, squared_offset(xk, 0.0, h))
        shift_sq, n_lo = 0.0, 0.0
    n_grid = np.linspace(n_lo, box.diagonal, n_nodes)
    arg = n_grid * n_grid - shift_sq
    vals = np.where(arg >= 0.0, f_s.interp(np.maximum(arg, 0.0)), 0.0) * 2.0 * n_grid
    return GridDensity1D(n_lo, box.diagonal, vals).normalized(force=True).values


@pytest.mark.parametrize("dims", KERNEL_BOXES + [(0.2, 1.0, 0.2)], ids=["cube", "slab", "skew", "rod"])
@pytest.mark.parametrize("kind", [PairKind.OPPOSING, PairKind.ADJACENT], ids=["opposing", "adjacent"])
def test_pair_length_matches_square_transform_route(dims, kind):
    box = BoxDims(*dims)
    for cls in canonical_classes():
        if cls.kind is kind:
            dens = chords.pair_length_pdf(box, kind, cls.indices)
            ref = toolkit_pair_length_values(box, kind, cls.indices, 1025, 2048)
            assert np.max(np.abs(dens.values - ref)) <= 1e-15 * ref.max()


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
    joint = chords.joint_pdf_opposing(cube, IDX, 48, 48, 48, 384)
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
            joints[pair.label] = build(cube, pair.indices, 64, 48, 48, 384)
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
    joint = chords.joint_pdf_adjacent(cube, IDX, 64, 48, 48, 384)
    n = joint.density.nodes(0)
    means = []
    for lo, hi in ((0.05, 0.2), (0.25, 0.4), (0.45, 0.6), (0.65, 0.8), (0.85, 1.0)):
        band = joint.density.band_integral(2, lo, hi).integrate_out(1)
        means.append(band.normalized(force=True).mean())
    assert all(b > a for a, b in zip(means, means[1:]))
    # pointwise: the law at elevation e has no support below e
    dens = chords.conditional_length_pdf(cube, PairKind.ADJACENT, IDX, (0.5, 0.8))
    assert dens.lo == pytest.approx(0.8)
