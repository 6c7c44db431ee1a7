"""Gridded probability densities and distribution transforms.

Densities are stored as values on uniformly spaced nodes and interpreted
as piecewise-linear (PL) between nodes, zero outside the sampled window.
The module provides the transform toolkit used throughout the package:
sums and differences via discrete convolution, ratios and products via
one-dimensional quadrature, squares and square roots via change of
variables, plus exact PL integration against arbitrary bin edges.

Two numerical points deserve attention:

* Discrete convolution applies a per-output trapezoid end-correction so
  that it reproduces the composite trapezoid rule of the exact integral.
  Plain rectangle-rule convolution would double-count boundary nodes.
* Densities with an integrable inverse-square-root edge (the square of a
  variable whose density is positive at zero) cannot be represented by
  node values alone.  `square_density` therefore sets the edge node so
  that the first grid cell carries the exact probability mass, which the
  trapezoid rule and the corrected convolution then conserve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "GridDensity",
    "GridDensity1D",
    "bin_masses_1d",
    "bin_masses_3d",
    "convolve_diff",
    "convolve_sum",
    "product_density",
    "ratio_density",
    "reciprocal_density",
    "sqrt_density",
    "square_density",
    "uniform_density",
]

_REL_TOL = 1e-9
_DEFAULT_AXIS_NAMES = {2: ("u", "v"), 3: ("n", "u", "v")}


def _validate_values(values: np.ndarray, ndim: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d value array, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("density values must be finite")
    if values.min() < -1e-12 * max(1.0, abs(values.max())):
        raise ValueError("density values must be nonnegative")
    return np.maximum(values, 0.0)


@dataclass(frozen=True)
class GridDensity1D:
    """PL density on uniform nodes over [lo, hi]."""

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _validate_values(self.values, 1))
        if self.values.size < 2:
            raise ValueError("need at least 2 nodes")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.hi > self.lo):
            raise ValueError(f"bad support [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.size - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.size)

    def interp(self, x: np.ndarray) -> np.ndarray:
        """PL interpolation, zero outside [lo, hi]."""
        return np.interp(np.asarray(x, dtype=float), self.nodes, self.values, left=0.0, right=0.0)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.spacing))

    def mean(self) -> float:
        """First moment divided by mass."""
        x = self.nodes
        m = np.trapezoid(self.values, x)
        if m <= 0:
            raise NumericalError("cannot take the mean of a zero-mass density")
        return float(np.trapezoid(x * self.values, x) / m)

    def normalized(self, tol: float = 0.2, force: bool = False) -> "GridDensity1D":
        """Rescale to unit mass; rejects grossly non-unit input unless forced."""
        m = self.integral()
        if m <= 0:
            raise NumericalError("cannot normalize a zero-mass density")
        if not force and abs(m - 1.0) > tol:
            raise NumericalError(f"mass {m:.6g} is off unity by more than {tol}; pass force=True to override")
        return GridDensity1D(self.lo, self.hi, self.values / m)

    def scaled(self, c: float) -> "GridDensity1D":
        """Density of c*X for nonzero c."""
        if c == 0 or not np.isfinite(c):
            raise ValueError("scale factor must be nonzero and finite")
        vals = self.values / abs(c)
        if c > 0:
            return GridDensity1D(c * self.lo, c * self.hi, vals)
        return GridDensity1D(c * self.hi, c * self.lo, vals[::-1])

    def reflected(self) -> "GridDensity1D":
        """Density of -X."""
        return self.scaled(-1.0)

    def shifted(self, d: float) -> "GridDensity1D":
        """Density of X + d."""
        return GridDensity1D(self.lo + d, self.hi + d, self.values)

    def resampled(self, lo: float, hi: float, n: int) -> "GridDensity1D":
        """PL interpolation onto a new uniform grid (zero outside the old support)."""
        return GridDensity1D(lo, hi, self.interp(np.linspace(lo, hi, n)))


@dataclass(frozen=True)
class GridDensity:
    """PL density on a 2- or 3-axis tensor grid; values indexed [axis0, axis1, ...].

    Default axis names are ("u", "v") for 2 axes and ("n", "u", "v") for 3,
    the length axis first in a (length, exit location) joint.
    """

    domain: tuple[tuple[float, float], ...]
    values: np.ndarray
    axis_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        rank = np.ndim(self.values)
        if rank not in (2, 3):
            raise ValueError(f"expected a 2-d or 3-d value array, got shape {np.shape(self.values)}")
        names = _DEFAULT_AXIS_NAMES[rank] if self.axis_names is None else tuple(self.axis_names)
        object.__setattr__(self, "values", _validate_values(self.values, rank))
        object.__setattr__(self, "domain", tuple((float(a), float(b)) for a, b in self.domain))
        object.__setattr__(self, "axis_names", names)
        if len(self.domain) != rank or len(names) != rank:
            raise ValueError(f"domain and axis_names must each list {rank} axes")
        for (lo, hi), n in zip(self.domain, self.values.shape):
            if not (hi > lo and n >= 2):
                raise ValueError("each axis needs hi > lo and at least 2 nodes")

    def nodes(self, axis: int) -> np.ndarray:
        lo, hi = self.domain[axis]
        return np.linspace(lo, hi, self.values.shape[axis])

    def spacing(self, axis: int) -> float:
        lo, hi = self.domain[axis]
        return (hi - lo) / (self.values.shape[axis] - 1)

    def integral(self) -> float:
        out = self.values
        for axis in reversed(range(self.values.ndim)):
            out = np.trapezoid(out, dx=self.spacing(axis), axis=axis)
        return float(out)

    def normalized(self, tol: float = 0.2, force: bool = False) -> "GridDensity":
        m = self.integral()
        if m <= 0:
            raise NumericalError("cannot normalize a zero-mass density")
        if not force and abs(m - 1.0) > tol:
            raise NumericalError(f"mass {m:.6g} is off unity by more than {tol}; pass force=True to override")
        return GridDensity(self.domain, self.values / m, self.axis_names)

    def _without(self, axis: int, vals: np.ndarray) -> "GridDensity | GridDensity1D":
        """The density on the axes other than `axis`, holding `vals`."""
        keep = [a for a in range(self.values.ndim) if a != axis]
        vals = np.maximum(vals, 0.0)
        if len(keep) == 1:
            lo, hi = self.domain[keep[0]]
            return GridDensity1D(lo, hi, vals)
        return GridDensity(
            tuple(self.domain[a] for a in keep), vals, tuple(self.axis_names[a] for a in keep)
        )

    def integrate_out(self, axis: int) -> "GridDensity | GridDensity1D":
        """Marginal over the remaining axes after integrating `axis` away."""
        return self._without(axis, np.trapezoid(self.values, dx=self.spacing(axis), axis=axis))

    def band_integral(self, axis: int, lo: float, hi: float) -> "GridDensity | GridDensity1D":
        """Exact PL integral over [lo, hi] along one axis; a partial marginal."""
        w = _hat_bin_weights(self.nodes(axis), np.array([lo, hi]))[:, 0]
        return self._without(axis, np.tensordot(self.values, w, axes=([axis], [0])))

    def marginal_1d(self, axis: int) -> GridDensity1D:
        """Integrate out every other axis, the highest first."""
        out = self
        for other in reversed(range(self.values.ndim)):
            if other != axis:
                out = out.integrate_out(other)
        return out


def uniform_density(lo: float, hi: float, n: int = 513) -> GridDensity1D:
    if not hi > lo:
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    return GridDensity1D(lo, hi, np.full(n, 1.0 / (hi - lo)))


# ---------------------------------------------------------------------------
# Discrete convolution with trapezoid end-correction.


def _conv_trap(f: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid-rule convolution of node samples with spacing h.

    Equals h * sum_t f[t] g[m-t] with the two end terms of each overlap
    window halved, i.e. the composite trapezoid rule for every output node.
    """
    c = np.convolve(f, g)
    m = np.arange(c.size)
    t_lo = np.maximum(0, m - (g.size - 1))
    t_hi = np.minimum(f.size - 1, m)
    c = c - 0.5 * (f[t_lo] * g[m - t_lo] + f[t_hi] * g[m - t_hi])
    c[t_hi < t_lo] = 0.0
    return np.maximum(c, 0.0) * h


def _common_spacing(fx: GridDensity1D, fy: GridDensity1D) -> tuple[GridDensity1D, GridDensity1D]:
    hx, hy = fx.spacing, fy.spacing
    if abs(hx - hy) <= _REL_TOL * max(hx, hy):
        return fx, fy
    # Resample the coarser input; callers with singular-edge grids should
    # construct both inputs at a shared spacing to avoid this path.
    h = min(hx, hy)
    if hx > hy:
        n = max(2, int(round((fx.hi - fx.lo) / h)) + 1)
        fx = fx.resampled(fx.lo, fx.lo + (n - 1) * h, n)
    else:
        n = max(2, int(round((fy.hi - fy.lo) / h)) + 1)
        fy = fy.resampled(fy.lo, fy.lo + (n - 1) * h, n)
    return fx, fy


def convolve_sum(fx: GridDensity1D, fy: GridDensity1D) -> GridDensity1D:
    """Density of X + Y for independent X, Y.

    Output node values are pointwise-correct wherever the inputs cover the
    integrand's support, even if the inputs are truncated elsewhere.
    """
    fx, fy = _common_spacing(fx, fy)
    h = fx.spacing
    vals = _conv_trap(fx.values, fy.values, h)
    lo = fx.lo + fy.lo
    return GridDensity1D(lo, lo + (vals.size - 1) * h, vals)


def convolve_diff(fx: GridDensity1D, fy: GridDensity1D) -> GridDensity1D:
    """Density of X - Y for independent X, Y."""
    return convolve_sum(fx, fy.reflected())


# ---------------------------------------------------------------------------
# Quadrature transforms.


def _midpoint_segments(lo: float, hi: float, exclude: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes/weights on [lo, hi] minus (-exclude, exclude)."""
    segs = []
    if lo < -exclude:
        segs.append((lo, min(hi, -exclude)))
    if hi > exclude:
        segs.append((max(lo, exclude), hi))
    if not segs:
        raise NumericalError("integration domain vanished under the w_min cutoff")
    total = sum(b - a for a, b in segs)
    nodes, weights = [], []
    for a, b in segs:
        m = max(1, int(round(n * (b - a) / total)))
        w = (b - a) / m
        nodes.append(a + (np.arange(m) + 0.5) * w)
        weights.append(np.full(m, w))
    return np.concatenate(nodes), np.concatenate(weights)


def _coverage_check(nodes: np.ndarray, vals: np.ndarray, min_coverage: float | None, what: str) -> None:
    if min_coverage is None:
        return
    mass = float(np.trapezoid(vals, nodes))
    if mass < min_coverage:
        raise NumericalError(
            f"{what} grid captures mass {mass:.4f} < required coverage {min_coverage}; widen the output window"
        )


def _quadrature_transform(
    fx: GridDensity1D,
    fy: GridDensity1D,
    s_lo: float,
    s_hi: float,
    s_nodes: int,
    w_nodes: int,
    w_min: float,
    arg: str,
) -> np.ndarray:
    w, dw = _midpoint_segments(fy.lo, fy.hi, w_min, w_nodes)
    fy_w = fy.interp(w)
    weight = fy_w * np.abs(w) * dw if arg == "ratio" else fy_w / np.abs(w) * dw
    s = np.linspace(s_lo, s_hi, s_nodes)
    out = np.empty(s_nodes)
    block = max(1, 2**22 // max(1, w.size))
    for start in range(0, s_nodes, block):
        sb = s[start : start + block, None]
        a = sb * w[None, :] if arg == "ratio" else sb / w[None, :]
        out[start : start + block] = fx.interp(a) @ weight
    return out


def ratio_density(
    fx: GridDensity1D,
    fy: GridDensity1D,
    s_lo: float,
    s_hi: float,
    s_nodes: int = 1025,
    w_nodes: int = 2048,
    w_min: float = 0.0,
    min_coverage: float | None = None,
) -> GridDensity1D:
    """Density of X / Y on [s_lo, s_hi]: f(s) = int f_x(s w) f_y(w) |w| dw.

    The |w| factor regularizes w = 0, so no cutoff is needed by default.
    With `min_coverage` set, raises NumericalError when the requested
    window captures less than that fraction of unit mass (heavy ratio
    tails are easy to truncate accidentally).
    """
    vals = _quadrature_transform(fx, fy, s_lo, s_hi, s_nodes, w_nodes, w_min, "ratio")
    out = GridDensity1D(s_lo, s_hi, np.maximum(vals, 0.0))
    _coverage_check(out.nodes, out.values, min_coverage, "ratio")
    return out


def product_density(
    fx: GridDensity1D,
    fy: GridDensity1D,
    s_lo: float,
    s_hi: float,
    s_nodes: int = 1025,
    w_nodes: int = 2048,
    w_min: float | None = None,
    min_coverage: float | None = None,
) -> GridDensity1D:
    """Density of X * Y: f(s) = int f_x(s / w) f_y(w) / |w| dw.

    The 1/|w| factor forces a cutoff around w = 0; the default excludes
    |w| below 1e-6 of the largest |w| in f_y's support.
    """
    if w_min is None:
        w_min = 1e-6 * max(abs(fy.lo), abs(fy.hi))
    vals = _quadrature_transform(fx, fy, s_lo, s_hi, s_nodes, w_nodes, w_min, "product")
    out = GridDensity1D(s_lo, s_hi, np.maximum(vals, 0.0))
    _coverage_check(out.nodes, out.values, min_coverage, "product")
    return out


def _pl_integral(f: GridDensity1D, a: float, b: float) -> float:
    """Exact integral of the PL density over [a, b]."""
    if b <= a:
        return 0.0
    w = _hat_bin_weights(f.nodes, np.array([a, b]))[:, 0]
    return float(w @ f.values)


def square_density(fx: GridDensity1D, s_hi: float | None = None, s_nodes: int = 1025) -> GridDensity1D:
    """Density of X^2 on [0, s_hi]: f(s) = (f_x(sqrt s) + f_x(-sqrt s)) / (2 sqrt s).

    When f_x is positive at 0 the output has an integrable 1/sqrt(s) edge;
    the s = 0 node is then set so the first grid cell holds the exact
    probability mass under the trapezoid rule, keeping downstream
    integration and convolution mass-conserving.
    """
    if s_hi is None:
        s_hi = max(fx.lo**2, fx.hi**2)
    s = np.linspace(0.0, s_hi, s_nodes)
    r = np.sqrt(s[1:])
    vals = np.empty(s_nodes)
    vals[1:] = (fx.interp(r) + fx.interp(-r)) / (2.0 * r)
    h = s[1]
    first_cell_mass = _pl_integral(fx, -np.sqrt(h), np.sqrt(h))
    vals[0] = max(0.0, 2.0 * (first_cell_mass - vals[1] * h / 2.0) / h)
    return GridDensity1D(0.0, s_hi, vals)


def sqrt_density(fx: GridDensity1D, t_nodes: int = 1025, t_hi: float | None = None) -> GridDensity1D:
    """Density of sqrt(X) for X supported on [0, inf): f(t) = f_x(t^2) * 2 t."""
    if fx.hi <= 0:
        raise ValueError("input support must reach into s > 0")
    t_lo = float(np.sqrt(max(fx.lo, 0.0)))
    if t_hi is None:
        t_hi = float(np.sqrt(fx.hi))
    t = np.linspace(t_lo, t_hi, t_nodes)
    return GridDensity1D(t_lo, t_hi, fx.interp(t * t) * 2.0 * t)


def reciprocal_density(fy: GridDensity1D, u_lo: float, u_hi: float, u_nodes: int = 1025) -> GridDensity1D:
    """Density of 1 / Y on [u_lo, u_hi], which must not straddle zero."""
    if u_lo <= 0.0 <= u_hi:
        raise ValueError("reciprocal output window must not straddle zero")
    u = np.linspace(u_lo, u_hi, u_nodes)
    return GridDensity1D(u_lo, u_hi, fy.interp(1.0 / u) / (u * u))


# ---------------------------------------------------------------------------
# Exact PL integration against bin edges.


def _hat_bin_weights(nodes: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """W[m, b] = integral over bin b of the PL hat function at node m.

    Bin masses of a PL density are then W.T @ values, exact for any edges.
    """
    nodes = np.asarray(nodes, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with at least 2 entries")
    w = np.zeros((nodes.size, edges.size - 1))
    lo = max(nodes[0], edges[0])
    hi = min(nodes[-1], edges[-1])
    if hi <= lo:
        return w
    pts = np.unique(np.clip(np.concatenate([nodes, edges]), lo, hi))
    p, q = pts[:-1], pts[1:]
    keep = q > p
    p, q = p[keep], q[keep]
    mid = 0.5 * (p + q)
    cell = np.clip(np.searchsorted(nodes, mid) - 1, 0, nodes.size - 2)
    binix = np.clip(np.searchsorted(edges, mid) - 1, 0, edges.size - 2)
    h = nodes[cell + 1] - nodes[cell]
    lam_p = (p - nodes[cell]) / h
    lam_q = (q - nodes[cell]) / h
    seg = q - p
    np.add.at(w, (cell, binix), seg * (2.0 - lam_p - lam_q) / 2.0)
    np.add.at(w, (cell + 1, binix), seg * (lam_p + lam_q) / 2.0)
    return w


def bin_masses_1d(f: GridDensity1D, edges: np.ndarray) -> np.ndarray:
    """Exact PL mass in each bin delimited by `edges`."""
    return _hat_bin_weights(f.nodes, edges).T @ f.values


def bin_masses_3d(
    f: GridDensity, edges0: np.ndarray, edges1: np.ndarray, edges2: np.ndarray
) -> np.ndarray:
    w0 = _hat_bin_weights(f.nodes(0), edges0)
    w1 = _hat_bin_weights(f.nodes(1), edges1)
    w2 = _hat_bin_weights(f.nodes(2), edges2)
    return np.einsum("ia,jb,kc,ijk->abc", w0, w1, w2, f.values, optimize=True)
