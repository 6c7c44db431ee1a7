"""Acceptance gates.

Eight numbered gates cover the package end to end; each prints one
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines for passing gates too).

Gate 7c checks that the mean chord length strictly increases with exit
elevation and matches a direct quadrature oracle; its function name
keeps the decreasing direction the gate was first stated with (see the
test docstring).
"""

import sys
import time

import numpy as np
from scipy import ndimage

from boxpath import (
    ALL_FACES,
    BoxDims,
    FaceId,
    IndexTriple,
    PairKind,
    Side,
    canonical_classes,
    canonical_histograms,
    chords,
    combined_length_pdf_chords,
    combined_length_pdf_rays,
    compare,
    entry_probability,
    length_histogram,
    rays,
    sample_chords,
    sample_rays,
    single_face_length_pdf,
)
from boxpath.density import GridDensity1D, bin_masses_1d
from boxpath.montecarlo import TrajectoryBatch

from conftest import binned_l1

IDX = IndexTriple(1, 2, 3)
BOXES = {
    "cube": BoxDims(1.0, 1.0, 1.0),
    "slab": BoxDims(1.0, 0.1, 1.0),
    "rod": BoxDims(0.2, 1.0, 0.2),
}


def report(gate: str, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {gate} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. entry probabilities


def test_gate_1_entry_probabilities():
    expected = {
        "cube": {1: 1 / 6, 2: 1 / 6, 3: 1 / 6},
        "slab": {1: 0.1 / 2.4, 2: 1 / 2.4, 3: 0.1 / 2.4},
        "rod": {1: 5 / 22, 2: 1 / 22, 3: 5 / 22},
    }
    worst = 0.0
    for name, box in BOXES.items():
        total = 0.0
        for face in ALL_FACES:
            p = entry_probability(box, face)
            total += p
            worst = max(worst, abs(p - expected[name][face.axis]))
        worst = max(worst, abs(total - 1.0))
    report("1", "entry-probabilities", worst <= 1e-12, f"max error {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. the toolkit the mixtures use


def test_gate_2_transform_toolkit():
    """A class law projected onto the mixture grid, as `combined.ClassLawTable` does, then binned.

    The law 0.3 + 0.7 max(U1, U2) is PL with a jump at 1, between the
    grid's nodes, where `interp` would lose mass; `project` keeps the
    exact mass and mean, and `bin_masses_1d` matches sampled bins.
    """
    rng = np.random.default_rng(101)
    n = 1_000_000
    nodes = np.linspace(0.3, 1.0, 129)
    law = GridDensity1D(0.3, 1.0, 2.0 * (nodes - 0.3) / 0.7**2)
    grid = np.linspace(0.0, 1.2, 257)
    mixed = GridDensity1D(0.0, 1.2, law.project(grid))
    edges = np.linspace(0.0, 1.2, 65)
    counts, _ = np.histogram(0.3 + 0.7 * np.maximum(rng.random(n), rng.random(n)), bins=edges)
    l1 = 0.5 * float(np.abs(bin_masses_1d(mixed, edges) - counts / n).sum())
    mass_gap = abs(mixed.integral() - 1.0)
    mean_gap = abs(mixed.mean() - (0.3 + 0.7 * 2.0 / 3.0))
    ok = l1 <= 0.03 and mass_gap <= 1e-12 and mean_gap <= 1e-12
    report("2", "projection-and-bin-masses", ok, f"L1 {l1:.4f}, mass gap {mass_gap:.1e}, mean gap {mean_gap:.1e}")


# ---------------------------------------------------------------------------
# 3. arc cumulatives


def test_gate_3_jacobians():
    """The closed arc cumulatives of the ray joints and length laws differentiate to their weights.

    The weights carry the Jacobian of the change of variables onto
    (length, exit location); their cumulatives along an arc are closed
    piece by piece.  Central differences of the opposing C, the adjacent
    C and D and `_sec3` must match the weights away from the kinks where
    the pieces meet; a point within 1e-4 of a kink is drawn again.
    """
    box = BoxDims(1.3, 0.8, 1.1)
    xj = box.dim(IDX.j)
    rng = np.random.default_rng(102)
    eps = 1e-6
    quarter = 0.25 * np.pi

    def slope(f, t):
        return (f(t + eps) - f(t - eps)) / (2.0 * eps)

    def gap(a, b):
        return float(abs(a - b) / b)

    worst = dict.fromkeys(("opposing", "C", "D", "sec3"), 0.0)
    points = redrawn = 0
    while points < 100:
        n, t = rng.uniform(xj, box.diagonal), rng.uniform(0.0, 2.0 * quarter)
        m = rng.uniform(0.0, box.diagonal)
        e = rng.uniform(0.0, min(xj, m))
        r, rho = np.sqrt(n * n - xj * xj), np.sqrt(m * m - e * e)
        star = min(quarter, np.arccos(min(1.0, xj / r)))
        arc = np.arccos(min(1.0, e / rho))
        kinks = (star, quarter, 2.0 * quarter - star, min(quarter, arc), max(quarter, 2.0 * quarter - arc))
        if min(abs(t - k) for k in kinks) < 1e-4:
            redrawn += 1
            continue
        points += 1
        cumulative, _ = rays._opposing_arc(xj, r)
        worst["opposing"] = max(worst["opposing"], gap(slope(cumulative, t), 1.0 / max(xj, r * np.cos(t), r * np.sin(t)) ** 3))
        adjacent = rays._adjacent_arc(e, rho)
        weight = rho * np.cos(t) / max(e, rho * np.sin(t), rho * np.cos(t)) ** 3
        worst["C"] = max(worst["C"], gap(slope(adjacent, t), weight))
        worst["D"] = max(worst["D"], gap(slope(lambda u: adjacent(u, moment=True)[1], t), rho * np.sin(t) * weight))
        worst["sec3"] = max(worst["sec3"], gap(slope(rays._sec3, t), 1.0 / np.cos(t) ** 3))
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report("3", "arc-cumulatives-vs-finite-differences", max(worst.values()) <= 1e-5, f"worst gap {detail}; {redrawn} redrawn")


# ---------------------------------------------------------------------------
# 4. chord conditionals vs direct quadrature


def test_gate_4_chord_conditionals():
    rng = np.random.default_rng(103)
    worst = 0.0
    for kind in (PairKind.OPPOSING, PairKind.ADJACENT):
        for _ in range(10):
            box = BoxDims(*rng.uniform(0.3, 1.5, 3))
            xi = box.dim(IDX.i)
            other = box.dim(IDX.k) if kind is PairKind.OPPOSING else box.dim(IDX.j)
            uv = (rng.uniform(0.05, 0.95) * xi, rng.uniform(0.05, 0.95) * other)
            dens = chords.conditional_length_pdf(box, kind, IDX, uv)
            edges = np.linspace(dens.lo, dens.hi, 65)
            m = 1200
            a = (np.arange(m) + 0.5) * (xi / m)
            if kind is PairKind.OPPOSING:
                b = (np.arange(m) + 0.5) * (box.dim(IDX.k) / m)
                dist = np.sqrt((uv[0] - a[:, None]) ** 2 + box.dim(IDX.j) ** 2 + (uv[1] - b[None, :]) ** 2)
            else:
                dpt = (np.arange(m) + 0.5) * (box.dim(IDX.k) / m)
                dist = np.sqrt((uv[0] - a[:, None]) ** 2 + uv[1] ** 2 + dpt[None, :] ** 2)
            oracle, _ = np.histogram(dist.ravel(), bins=edges)
            oracle = oracle / dist.size
            centers = 0.5 * (edges[:-1] + edges[1:])
            worst = max(worst, 0.5 * np.sum(np.abs(dens.interp(centers) * np.diff(edges) - oracle)))
    report("4", "chord-conditionals-vs-quadrature", worst <= 0.02, f"worst L1 {worst:.4f}")


# ---------------------------------------------------------------------------
# 5. ray-model cross-consistency


def grid_l1_2d(a, b) -> float:
    diff = np.abs(a.values - b.values)
    inner = np.trapezoid(diff, a.nodes(1), axis=1)
    return float(0.5 * np.trapezoid(inner, a.nodes(0)))


def pair_batch(batch: TrajectoryBatch, entry: FaceId, exit: FaceId) -> TrajectoryBatch:
    m = (batch.entry_code == entry.code) & (batch.exit_code == exit.code)
    return TrajectoryBatch(
        batch.box, batch.entry_code[m], batch.entry_ab[m], batch.exit_code[m], batch.exit_ab[m], batch.length[m], {}
    )


def test_gate_5_ray_cross_consistency():
    cube = BOXES["cube"]
    jo = rays.joint_pdf_opposing(cube, IDX, 64, 64, 64)
    ja = rays.joint_pdf_adjacent(cube, IDX, 64, 64, 64)
    eo = rays.exit_pdf_opposing(cube, IDX, 64, 64)
    ea = rays.exit_pdf_adjacent(cube, IDX, 64, 64)
    l1_opp = grid_l1_2d(jo.density.integrate_out(0), eo.density)
    l1_adj = grid_l1_2d(ja.density.integrate_out(0), ea.density)
    mass_gap = max(abs(jo.mass / eo.mass - 1.0), abs(ja.mass / ea.mass - 1.0))
    sym = float(np.max(np.abs(eo.density.values - eo.density.values[::-1, ::-1])))

    # every placement pooled into a class matches the class's analytic law
    batch = sample_rays(cube, 8_000_000, 515, "cube-components", 1)
    entry2 = (FaceId(2, Side.LOW), FaceId(2, Side.HIGH))
    pool_worst = 0.0
    for entry in entry2:
        exit = FaceId(2, Side.HIGH if entry.side is Side.LOW else Side.LOW)
        sub = canonical_histograms(pair_batch(batch, entry, exit), 5, 5, 5)
        pool_worst = max(pool_worst, compare.compare_joint(sub["opposing-entry2"], jo.density).l1)
        for exit in (FaceId(3, Side.LOW), FaceId(3, Side.HIGH)):
            sub = canonical_histograms(pair_batch(batch, entry, exit), 5, 5, 5)
            pool_worst = max(pool_worst, compare.compare_joint(sub["adjacent-entry2-exit3"], ja.density).l1)

    ok = l1_opp <= 0.05 and l1_adj <= 0.05 and mass_gap <= 2e-2 and sym <= 1e-9 and pool_worst <= 0.05
    report(
        "5",
        "ray-cross-consistency",
        ok,
        f"marginal L1 {l1_opp:.4f}/{l1_adj:.4f}, mass gap {mass_gap:.4f}, symmetry {sym:.1e}, pooling L1 {pool_worst:.4f}",
    )


# ---------------------------------------------------------------------------
# 6. Monte Carlo vs analytic, end to end


def test_gate_6_end_to_end():
    cube = BOXES["cube"]
    n = 10_000_000
    worst_joint = 0.0
    worst_len = 0.0

    batch = sample_rays(cube, n, 606, "cube-components", 1)
    hists = canonical_histograms(batch, 8, 8, 8)
    edges, counts = length_histogram(batch, 128)
    del batch
    for cls in canonical_classes():
        if cls.kind is PairKind.OPPOSING:
            joint = rays.joint_pdf_opposing(cube, cls.indices, 64, 64, 64)
        else:
            joint = rays.joint_pdf_adjacent(cube, cls.indices, 64, 64, 64)
        rep = compare.compare_joint(hists[cls.label], joint.density)
        worst_joint = max(worst_joint, rep.l1)
    comb = combined_length_pdf_rays(cube, 1025)
    worst_len = max(worst_len, binned_l1(comb.normalized(), edges, counts))

    batch = sample_chords(cube, n, 607, 1)
    hists = canonical_histograms(batch, 8, 8, 8)
    edges, counts = length_histogram(batch, 128)
    del batch
    for cls in canonical_classes():
        if cls.kind is PairKind.OPPOSING:
            joint = chords.joint_pdf_opposing(cube, cls.indices, 64, 64, 64)
        else:
            joint = chords.joint_pdf_adjacent(cube, cls.indices, 64, 64, 64)
        rep = compare.compare_joint(hists[cls.label], joint.density)
        worst_joint = max(worst_joint, rep.l1)
    comb = combined_length_pdf_chords(cube, 1025)
    worst_len = max(worst_len, binned_l1(comb.normalized(), edges, counts))

    ok = worst_joint <= 0.05 and worst_len <= 0.03
    report("6", "monte-carlo-vs-analytic", ok, f"worst joint L1 {worst_joint:.4f}, worst length L1 {worst_len:.4f}")


# ---------------------------------------------------------------------------
# 7. figure structure


def test_gate_7a_band_map_annulus():
    """The banded exit density forms a ring around the face centre."""
    cube = BOXES["cube"]
    joint = chords.joint_pdf_opposing(cube, IDX, 64, 64, 64)
    sheet = joint.density.band_integral(0, 1.17, 1.22)
    vals = sheet.values
    half = vals.max() / 2.0
    above = vals > half
    _, n_above = ndimage.label(above)
    c = vals.shape[0] // 2
    center_below = vals[c, c] < half
    below_labels, _ = ndimage.label(vals < half)
    hole = below_labels == below_labels[c, c]
    enclosed = not (hole[0, :].any() or hole[-1, :].any() or hole[:, 0].any() or hole[:, -1].any())
    uu, vv = np.meshgrid(sheet.nodes(0) - 0.5, sheet.nodes(1) - 0.5, indexing="ij")
    ang = np.arctan2(vv, uu)[above]
    occupied = int((np.histogram(ang, bins=24, range=(-np.pi, np.pi))[0] > 0).sum())
    ok = n_above == 1 and center_below and enclosed and occupied == 24
    report(
        "7a",
        "band-map-annulus",
        ok,
        f"components {n_above}, centre excluded {center_below}, enclosed {enclosed}, angular bins {occupied}/24",
    )


def test_gate_7b_mode_elevation_contrast():
    """Ray exits hug the shared edge; chord exits peak much higher."""
    cube = BOXES["cube"]
    e_rays = rays.joint_pdf_adjacent(cube, IDX, 64, 64, 64).density.marginal_1d(2)
    e_chords = chords.joint_pdf_adjacent(cube, IDX, 64, 64, 64).density.marginal_1d(2)
    mode_rays = float(e_rays.nodes[np.argmax(e_rays.values)])
    mode_chords = float(e_chords.nodes[np.argmax(e_chords.values)])
    ok = mode_rays < mode_chords
    report("7b", "adjacent-mode-elevation-contrast", ok, f"rays {mode_rays:.3f} < chords {mode_chords:.3f}")


def test_gate_7c_mean_length_decreasing_in_elevation():
    """Chord-model mean length rises with exit elevation, as quadrature says.

    The function name records the gate as first stated, which asserted a
    decreasing trend.  That direction cannot hold: with the exit fixed at
    elevation e on an adjacent face, the chord to an entry point at
    transverse offset da and depth d has length sqrt(da^2 + e^2 + d^2),
    where the (da, d) law does not depend on e.  Raising e lengthens every
    chord pointwise, so the mean rises with elevation.  The gate checks
    that the elevation-quintile means of the analytic joint strictly
    increase and match a direct midpoint quadrature of
    E[sqrt(T^2 + e^2 + D^2)] on the unit cube: T is the triangular
    difference of two U(0, 1) draws, D is U(0, 1) and e is uniform within
    the quintile.
    """
    cube = BOXES["cube"]
    joint = chords.joint_pdf_adjacent(cube, IDX, 64, 64, 64)
    means = []
    for q in range(5):
        band = joint.density.band_integral(2, 0.2 * q, 0.2 * (q + 1)).integrate_out(1)
        means.append(band.normalized().mean())

    # oracle: midpoint quadrature over (T, D, e), independent of the chords module
    t = -1.0 + (np.arange(256) + 0.5) / 128
    w_t = (1.0 - np.abs(t)) / 128
    d = (np.arange(128) + 0.5) / 128
    rr = t[:, None] ** 2 + d[None, :] ** 2
    oracle = []
    for q in range(5):
        e = 0.2 * q + (np.arange(64) + 0.5) * (0.2 / 64)
        length = np.sqrt(rr[:, :, None] + e[None, None, :] ** 2)
        oracle.append(float(w_t @ length.mean(axis=(1, 2))))

    increasing = all(b > a for a, b in zip(means, means[1:]))
    worst = max(abs(m - o) for m, o in zip(means, oracle))
    report(
        "7c",
        "mean-length-vs-elevation",
        increasing and worst <= 5e-3,
        "quintile means " + ", ".join(f"{m:.4f}" for m in means)
        + "; quadrature " + ", ".join(f"{o:.4f}" for o in oracle)
        + f"; worst gap {worst:.1e}",
    )


def test_gate_7d_single_face_overlays():
    worst = 0.0
    for name, box in BOXES.items():
        axes = {"cube": (2,), "slab": (1, 2), "rod": (1, 2)}[name]
        for axis in axes:
            face = FaceId(axis, Side.LOW)
            for model in ("rays", "chords"):
                law = single_face_length_pdf(box, face, model, 513)
                if model == "rays":
                    batch = sample_rays(box, 1_000_000, 700 + axis, "cube-components", 1, entry_face=face)
                else:
                    batch = sample_chords(box, 1_000_000, 700 + axis, 1, entry_face=face)
                edges, counts = length_histogram(batch, 96)
                worst = max(worst, binned_l1(law.normalized(), edges, counts))
    report("7d", "single-face-overlays", worst <= 0.05, f"worst L1 {worst:.4f}")


# ---------------------------------------------------------------------------
# 8. determinism and throughput


def test_gate_8_determinism_and_throughput():
    cube = BOXES["cube"]
    a = sample_rays(cube, 1_000_000, 808, "cube-components", 1)
    b = sample_rays(cube, 1_000_000, 808, "cube-components", 3)
    identical = (
        np.array_equal(a.length, b.length)
        and np.array_equal(a.entry_ab, b.entry_ab)
        and np.array_equal(a.exit_ab, b.exit_ab)
        and np.array_equal(a.exit_code, b.exit_code)
    )
    c = sample_chords(cube, 1_000_000, 809, 1)
    d = sample_chords(cube, 1_000_000, 809, 4)
    identical = identical and np.array_equal(c.length, d.length)

    n = 2_000_000
    t0 = time.perf_counter()
    sample_rays(cube, n, 810, "cube-components", 1)
    rate_rays = n / (time.perf_counter() - t0)
    t0 = time.perf_counter()
    sample_chords(cube, n, 811, 1)
    rate_chords = n / (time.perf_counter() - t0)
    ok = identical and rate_rays >= 1e6 and rate_chords >= 1e6
    report(
        "8",
        "determinism-and-throughput",
        ok,
        f"worker-invariant {identical}, {rate_rays:.2e}/s rays, {rate_chords:.2e}/s chords",
    )
