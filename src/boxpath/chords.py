"""Analytic distributions for chords between uniform surface points.

In this model the entry point is uniform on the box surface and the exit
point is an independent uniform surface point, redrawn while it lands on
the entry face.  Conditional on the (entry, exit) face pair the two
points are uniform on their faces, so every length law decomposes into
sums of squared uniform offsets:

    n^2 = sum_c (p1_c - p0_c)^2,

one term per axis.  Each squared offset is a closed-form row on a
uniform grid in s = n^2, its inverse-square-root edge handled by setting
the s = 0 node from the exact first-cell mass; the sum is a discrete
convolution at a shared grid spacing, and the length follows from
f_N(n) = 2n f_S(n^2 - shift).  All quantities below are exact up to grid
resolution; no sampling is involved.

The conditional law at an exit point and the (length, exit location)
joints share one batched kernel, `_length_values`: it builds the squared
offsets of every exit node as zero-padded closed-form rows, convolves
each u row against all second-offset rows with one real FFT, applies
the trapezoid end-correction at each pair's true row lengths, and reads
the square root off all rows by uniform-grid interpolation.  Opposing
exits are separable, S = (u - x_i)^2 + (v - x_k)^2; on adjacent exits
the depth convolution serves every elevation and only the shift e^2
changes.  The location-integrated pair laws convolve the closed-form
rows of (U - U')^2 (two uniform coordinates on parallel faces) and of
(0 - U)^2 (a coordinate against a face plane) with `convolve_sum`.
"""

from __future__ import annotations

import numpy as np

from .rays import FacePdf
from .density import GridDensity, GridDensity1D, convolve_sum
from .errors import NumericalError
from .geometry import BoxDims, FaceId, IndexTriple, PairKind, entry_probability

__all__ = [
    "conditional_exit_probability",
    "conditional_length_pdf",
    "joint_pdf_adjacent",
    "joint_pdf_opposing",
    "pair_length_pdf",
]


def conditional_exit_probability(box: BoxDims, entry: FaceId, exit: FaceId) -> float:
    """P(exit face | entry face) when the exit point is redrawn off the entry face.

    Equals P_exit / (1 - P_entry).  Redrawing both points of a same-face
    pair would give the same conditional, but would tilt the entry-face
    law away from P_entry unless all faces have equal area.
    """
    if entry == exit:
        raise ValueError("entry and exit faces coincide")
    box = BoxDims.from_any(box)
    return entry_probability(box, exit) / (1.0 - entry_probability(box, entry))


def _length_from_sum(f_s: GridDensity1D, shift_sq: float, n_grid: np.ndarray) -> np.ndarray:
    """Length density values f_S(n^2 - shift_sq) * 2n on the given n nodes."""
    arg = n_grid * n_grid - shift_sq
    vals = np.where(arg >= 0.0, f_s.interp(np.maximum(arg, 0.0)), 0.0)
    return vals * 2.0 * n_grid


def _offset_rows(width: float, targets: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Densities of (t - U(0, width))^2 at spacing h, one zero-padded row per target t.

    Row t has m = ceil(max(t^2, (t - width)^2) / h) + 1 nodes s = k h.  For
    k >= 1 the value is the closed form c / (2 width sqrt s), c counting the
    sides -sqrt s, sqrt s that lie in [t - width, t].  The s = 0 node is set
    so the first cell holds the exact mass of [-sqrt h, sqrt h] under the
    trapezoid rule.  Returns the rows and each row's true length m.
    """
    t = np.asarray(targets, dtype=float)[:, None]
    lo = t - width
    sizes = np.maximum(2, np.ceil(np.maximum(t * t, lo * lo)[:, 0] / h).astype(int) + 1)
    r = np.sqrt(np.arange(1, sizes.max()) * h)
    sides = ((lo <= r) & (r <= t)).astype(float) + ((lo <= -r) & (-r <= t))
    rows = np.zeros((t.size, sizes.max()))
    rows[:, 1:] = sides / width / (2.0 * r)
    rows[np.arange(sizes.max()) >= sizes[:, None]] = 0.0
    first_cell_mass = np.maximum(0.0, np.minimum(r[0], t) - np.maximum(-r[0], lo))[:, 0] / width
    rows[:, 0] = np.maximum(0.0, 2.0 * (first_cell_mass - rows[:, 1] * h / 2.0) / h)
    return rows, sizes


def _plane_offset_density(width: float, h: float) -> GridDensity1D:
    """Density of (0 - U(0, width))^2 at spacing h: the `_offset_rows` row of target 0."""
    rows, sizes = _offset_rows(width, np.zeros(1), h)
    return GridDensity1D(0.0, (sizes[0] - 1) * h, rows[0])


def _difference_density(width: float, h: float) -> GridDensity1D:
    """Density of (U - U')^2 for two independent U(0, width), at spacing h.

    For s = k h, k >= 1, the value is the closed form
    (width - sqrt s) / (width^2 sqrt s), zero past width^2.  As in
    `_offset_rows`, the s = 0 node is set so the first cell holds the
    exact mass of |U - U'| <= sqrt h, 2 r / width - r^2 / width^2 with
    r = min(sqrt h, width), under the trapezoid rule.
    """
    m = max(2, int(np.ceil(width * width / h)) + 1)
    r = np.sqrt(np.arange(1, m) * h)
    vals = np.empty(m)
    vals[1:] = np.maximum(0.0, width - r) / (width * width * r)
    r0 = min(r[0], width)
    first_cell_mass = 2.0 * r0 / width - r0 * r0 / (width * width)
    vals[0] = max(0.0, 2.0 * (first_cell_mass - vals[1] * h / 2.0) / h)
    return GridDensity1D(0.0, (m - 1) * h, vals)


def _length_values(
    box: BoxDims, kind: PairKind, indices: IndexTriple, u: np.ndarray, v: np.ndarray, h: float, n_grid: np.ndarray
) -> np.ndarray:
    """Length density 2n f_S(n^2 - shift) at every exit node (u, v); shape (n, u, v).

    S is the sum of the squared offsets that vary with the entry point, at
    grid spacing h.  Opposing exits: S = (u - x_i)^2 + (v - x_k)^2 and the
    shift is X_j^2.  Adjacent exits: S = (u - x_i)^2 + x_k^2 with the entry
    depth x_k, and the shift is the squared elevation v^2.  Each u row is
    convolved with every second-offset row by one batched real FFT; the
    trapezoid end-correction then uses each pair's true row lengths, and
    the square root is read off every row by uniform-grid interpolation.
    """
    xi, xj, xk = box.dim(indices.i), box.dim(indices.j), box.dim(indices.k)
    f, f_sizes = _offset_rows(xi, u, h)
    if kind is PairKind.OPPOSING:
        g, g_sizes = _offset_rows(xk, v, h)
        g_of = np.arange(v.size)
        shift_sq = np.full(v.size, xj * xj)
    else:
        g, g_sizes = _offset_rows(xk, np.zeros(1), h)
        g_of = np.zeros(v.size, dtype=int)
        shift_sq = v * v
    width = f.shape[1] + g.shape[1] - 1
    nfft = 1 << (width - 1).bit_length()
    f_hat = np.fft.rfft(f, nfft)
    g_hat = np.fft.rfft(g, nfft)
    # Trapezoid windows: output node m sums f[t] g[m - t] for t in [t_lo, t_hi].
    m = np.arange(width)
    t_lo = np.maximum(0, m - (g_sizes[:, None] - 1))
    g_lo = np.take_along_axis(g, np.minimum(m - t_lo, g.shape[1] - 1), axis=1)
    g_row = np.arange(g.shape[0])[:, None]
    # Read sqrt off the rows: S = n^2 - shift on the uniform grid s = k h.
    arg = n_grid[:, None] ** 2 - shift_sq[None, :]
    pos = np.maximum(arg, 0.0) / h
    k = np.minimum(pos.astype(int), width - 2)
    frac = pos - k
    keep = (arg >= 0.0) & (pos <= width - 1)
    scale = np.where(keep, 2.0 * n_grid[:, None], 0.0)
    out = np.empty((n_grid.size, u.size, v.size))
    for a in range(u.size):
        c = np.fft.irfft(f_hat[a] * g_hat, nfft)[:, :width]
        t_hi = np.minimum(f_sizes[a] - 1, m)
        g_hi = g[g_row, np.clip(m - t_hi, 0, g.shape[1] - 1)]
        c -= 0.5 * (f[a, np.minimum(t_lo, f.shape[1] - 1)] * g_lo + f[a, t_hi] * g_hi)
        c[t_hi < t_lo] = 0.0
        c = np.maximum(c, 0.0) * h
        out[:, a, :] = (c[g_of, k] * (1.0 - frac) + c[g_of, k + 1] * frac) * scale
    return out


def conditional_length_pdf(
    box: BoxDims,
    kind: PairKind,
    indices: IndexTriple,
    exit_uv: tuple[float, float],
    n_nodes: int = 513,
    s_nodes: int = 2048,
) -> GridDensity1D:
    """Length density conditional on the canonical exit location.

    For an opposing exit the location is (x_i, x_k) on the face x_j = X_j
    and the fixed gap contributes X_j^2; for an adjacent exit the location
    is (x_i, elevation) on x_k = 0 and the squared elevation is the fixed
    part, with the entry-depth offset x_k entering as a squared uniform.
    The grid spacing is the conditional support's span over `s_nodes`.
    """
    box = BoxDims.from_any(box)
    xi, xj, xk = box.dim(indices.i), box.dim(indices.j), box.dim(indices.k)
    u, v = float(exit_uv[0]), float(exit_uv[1])
    if kind is PairKind.OPPOSING:
        span = max(u * u, (u - xi) ** 2) + max(v * v, (v - xk) ** 2)
        shift_sq = xj * xj
    else:
        span = max(u * u, (u - xi) ** 2) + xk * xk
        shift_sq = v * v
    n_lo = float(np.sqrt(shift_sq))
    n_hi = float(np.sqrt(shift_sq + span))
    if n_hi <= n_lo:
        raise NumericalError("degenerate conditional support")
    n_grid = np.linspace(n_lo, n_hi, n_nodes)
    vals = _length_values(box, kind, indices, np.array([u]), np.array([v]), span / s_nodes, n_grid)
    return GridDensity1D(n_lo, n_hi, vals[:, 0, 0]).normalized(force=True)


def _joint(box: BoxDims, kind: PairKind, indices: IndexTriple, n_nodes: int, u_nodes: int, v_nodes: int, s_nodes: int) -> FacePdf:
    box = BoxDims.from_any(box)
    xi, xj, xk = box.dim(indices.i), box.dim(indices.j), box.dim(indices.k)
    other = xk if kind is PairKind.OPPOSING else xj
    n_lo = xj if kind is PairKind.OPPOSING else 0.0
    n_grid = np.linspace(n_lo, box.diagonal, n_nodes)
    u = np.linspace(0.0, xi, u_nodes)
    v = np.linspace(0.0, other, v_nodes)
    area = xi * other
    span_2 = other * other if kind is PairKind.OPPOSING else xk * xk
    h = (xi * xi + span_2) / s_nodes
    vals = _length_values(box, kind, indices, u, v, h, n_grid) / area
    names = ("n", f"x{indices.i}", f"x{indices.k}" if kind is PairKind.OPPOSING else f"x{indices.j}")
    dens = GridDensity(((n_lo, box.diagonal), (0.0, xi), (0.0, other)), vals, names)
    entry = FaceId(indices.j, 0)
    exit_face = FaceId(indices.j, 1) if kind is PairKind.OPPOSING else FaceId(indices.k, 0)
    mass = conditional_exit_probability(box, entry, exit_face)
    return FacePdf(kind, indices, dens.normalized(force=True), mass)


def joint_pdf_opposing(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 64,
    u_nodes: int = 64,
    v_nodes: int = 64,
    s_nodes: int = 512,
) -> FacePdf:
    """Joint (length, exit-location) density for an opposing face pair.

    The exit location is uniform on the face, so the joint factorizes into
    (1 / area) times the conditional length law at each location.
    """
    return _joint(box, PairKind.OPPOSING, indices, n_nodes, u_nodes, v_nodes, s_nodes)


def joint_pdf_adjacent(
    box: BoxDims,
    indices: IndexTriple,
    n_nodes: int = 64,
    u_nodes: int = 64,
    v_nodes: int = 64,
    s_nodes: int = 512,
) -> FacePdf:
    """Joint (length, exit-location) density for an adjacent face pair."""
    return _joint(box, PairKind.ADJACENT, indices, n_nodes, u_nodes, v_nodes, s_nodes)


def pair_length_pdf(
    box: BoxDims,
    kind: PairKind,
    indices: IndexTriple,
    n_nodes: int = 1025,
    s_nodes: int = 2048,
) -> GridDensity1D:
    """Unit-mass length density for a face pair, location integrated out.

    A transverse offset between two uniform coordinates gives a squared
    difference row (`_difference_density`); an offset against a face
    plane gives a squared uniform row (`_plane_offset_density`).  The sum
    convolves the rows at one shared spacing, and the length law is read
    off it as 2n f_S(n^2 - shift).
    """
    box = BoxDims.from_any(box)
    xi, xj, xk = box.dim(indices.i), box.dim(indices.j), box.dim(indices.k)
    if kind is PairKind.OPPOSING:
        span = xi * xi + xk * xk
        h = span / s_nodes
        f_s = convolve_sum(_difference_density(xi, h), _difference_density(xk, h))
        shift_sq = xj * xj
        n_lo = xj
    else:
        span = xi * xi + xj * xj + xk * xk
        h = span / s_nodes
        f_s = convolve_sum(
            convolve_sum(_difference_density(xi, h), _plane_offset_density(xj, h)),
            _plane_offset_density(xk, h),
        )
        shift_sq = 0.0
        n_lo = 0.0
    n_grid = np.linspace(n_lo, box.diagonal, n_nodes)
    vals = _length_from_sum(f_s, shift_sq, n_grid)
    return GridDensity1D(n_lo, box.diagonal, vals).normalized(force=True)
