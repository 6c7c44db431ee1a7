"""Analytic distributions for chords between uniform surface points.

In this model the entry point is uniform on the box surface and the exit
point is an independent uniform surface point, redrawn while it lands on
the entry face.  Conditional on the (entry, exit) face pair the two
points are uniform on their faces, so every length law decomposes into
sums of squared uniform offsets:

    n^2 = sum_c (p1_c - p0_c)^2,

one term per axis.  Each squared offset has a density obtained from the
square transform (with its inverse-square-root edge handled at the node
level), the sum is a discrete convolution at a shared grid spacing, and
the length follows by the square-root transform.  All quantities below
are exact up to grid resolution; no sampling is involved.
"""

from __future__ import annotations

import numpy as np

from .rays import FacePdf
from .density import (
    GridDensity,
    GridDensity1D,
    convolve_diff,
    convolve_sum,
    square_density,
    uniform_density,
)
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


def _squared_offset_density(width: float, target: float, h: float, x_nodes: int = 513) -> GridDensity1D:
    """Density of (target - U(0, width))^2 on a grid with spacing h."""
    s_hi = max(target * target, (target - width) ** 2)
    m = max(2, int(np.ceil(s_hi / h)) + 1)
    return square_density(uniform_density(target - width, target, x_nodes), s_hi=(m - 1) * h, s_nodes=m)


def _squared_triangular_density(width: float, h: float, x_nodes: int = 513) -> GridDensity1D:
    """Density of (U - U')^2 for two independent U(0, width) variables."""
    tri = convolve_diff(uniform_density(0.0, width, x_nodes), uniform_density(0.0, width, x_nodes))
    m = max(2, int(np.ceil(width * width / h)) + 1)
    return square_density(tri, s_hi=(m - 1) * h, s_nodes=m)


def _length_from_sum(f_s: GridDensity1D, shift_sq: float, n_grid: np.ndarray) -> np.ndarray:
    """Length density values f_S(n^2 - shift_sq) * 2n on the given n nodes."""
    arg = n_grid * n_grid - shift_sq
    vals = np.where(arg >= 0.0, f_s.interp(np.maximum(arg, 0.0)), 0.0)
    return vals * 2.0 * n_grid


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
    """
    box = BoxDims.from_any(box)
    xi, xj, xk = box.dim(indices.i), box.dim(indices.j), box.dim(indices.k)
    u, v = float(exit_uv[0]), float(exit_uv[1])
    if kind is PairKind.OPPOSING:
        span = max(u * u, (u - xi) ** 2) + max(v * v, (v - xk) ** 2)
        shift_sq = xj * xj
        h = span / s_nodes
        f_s = convolve_sum(_squared_offset_density(xi, u, h), _squared_offset_density(xk, v, h))
    else:
        span = max(u * u, (u - xi) ** 2) + xk * xk
        shift_sq = v * v
        h = span / s_nodes
        f_s = convolve_sum(_squared_offset_density(xi, u, h), _squared_offset_density(xk, 0.0, h))
    n_lo = float(np.sqrt(shift_sq))
    n_hi = float(np.sqrt(shift_sq + span))
    if n_hi <= n_lo:
        raise NumericalError("degenerate conditional support")
    n_grid = np.linspace(n_lo, n_hi, n_nodes)
    dens = GridDensity1D(n_lo, n_hi, _length_from_sum(f_s, shift_sq, n_grid))
    return dens.normalized(force=True)


def _joint(box: BoxDims, kind: PairKind, indices: IndexTriple, n_nodes: int, u_nodes: int, v_nodes: int, s_nodes: int) -> FacePdf:
    box = BoxDims.from_any(box)
    xi, xj, xk = box.dim(indices.i), box.dim(indices.j), box.dim(indices.k)
    other = xk if kind is PairKind.OPPOSING else xj
    n_lo = xj if kind is PairKind.OPPOSING else 0.0
    n_grid = np.linspace(n_lo, box.diagonal, n_nodes)
    u = np.linspace(0.0, xi, u_nodes)
    v = np.linspace(0.0, other, v_nodes)
    area = xi * other
    vals = np.empty((n_nodes, u_nodes, v_nodes))
    span_i = xi * xi
    span_2 = other * other if kind is PairKind.OPPOSING else xk * xk
    h = (span_i + span_2) / s_nodes
    if kind is PairKind.OPPOSING:
        f_second = [_squared_offset_density(xk, vv, h) for vv in v]
    else:
        f_second = [_squared_offset_density(xk, 0.0, h)] * v_nodes
    for iu, uu in enumerate(u):
        f_si = _squared_offset_density(xi, uu, h)
        for iv, vv in enumerate(v):
            if kind is PairKind.OPPOSING:
                f_s = convolve_sum(f_si, f_second[iv])
                shift_sq = xj * xj
            else:
                # The depth convolution does not depend on the elevation.
                if iv == 0:
                    f_s = convolve_sum(f_si, f_second[0])
                shift_sq = vv * vv
            vals[:, iu, iv] = _length_from_sum(f_s, shift_sq, n_grid) / area
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

    Transverse offsets between two uniform coordinates square a triangular
    density; offsets against a face plane square a uniform one.  The sum
    convolves them at one shared spacing, then the square-root transform
    yields the chord-length law.
    """
    box = BoxDims.from_any(box)
    xi, xj, xk = box.dim(indices.i), box.dim(indices.j), box.dim(indices.k)
    if kind is PairKind.OPPOSING:
        span = xi * xi + xk * xk
        h = span / s_nodes
        f_s = convolve_sum(_squared_triangular_density(xi, h), _squared_triangular_density(xk, h))
        shift_sq = xj * xj
        n_lo = xj
    else:
        span = xi * xi + xj * xj + xk * xk
        h = span / s_nodes
        f_s = convolve_sum(
            convolve_sum(_squared_triangular_density(xi, h), _squared_offset_density(xj, 0.0, h)),
            _squared_offset_density(xk, 0.0, h),
        )
        shift_sq = 0.0
        n_lo = 0.0
    n_grid = np.linspace(n_lo, box.diagonal, n_nodes)
    vals = _length_from_sum(f_s, shift_sq, n_grid)
    return GridDensity1D(n_lo, box.diagonal, vals).normalized(force=True)
