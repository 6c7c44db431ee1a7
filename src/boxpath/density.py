"""Gridded probability densities, sums and exact bin masses.

Densities are stored as values on uniformly spaced nodes and interpreted
as piecewise-linear (PL) between nodes, zero outside the sampled window.
The module provides the grid types (with a mass-lumped projection of a
1-d law onto another grid), the density of a sum by discrete
convolution (`convolve_sum`), and exact PL integration against
arbitrary bin edges.

Discrete convolution applies a per-output trapezoid end-correction so
that it reproduces the composite trapezoid rule of the exact integral;
plain rectangle-rule convolution would double-count boundary nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleGridError, NumericalError

__all__ = [
    "GridDensity",
    "GridDensity1D",
    "bin_masses_1d",
    "bin_masses_3d",
    "convolve_sum",
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


def _unit_mass(values: np.ndarray, mass: float) -> np.ndarray:
    """`values` divided by their grid mass; NumericalError when there is none."""
    if mass <= 0:
        raise NumericalError("cannot normalize a zero-mass density")
    return values / mass


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

    def project(self, grid: np.ndarray) -> np.ndarray:
        """Mass-lumped projection onto the hats phi_i of `grid`: v_i = int f phi_i / int phi_i.

        Where `grid` covers [lo, hi] the trapezoid mass and first moment of
        v on `grid` equal the exact ones of this PL density, which `interp`
        does not keep when a jump at lo or hi falls between grid nodes.
        """
        grid = np.asarray(grid, dtype=float)
        lo, hi = max(self.lo, grid[0]), min(self.hi, grid[-1])
        out = np.zeros(grid.size)
        if hi <= lo:
            return out
        # Between merged nodes both f and every target hat are linear.
        pts = _sorted_distinct(np.clip(np.concatenate([self.nodes, grid]), lo, hi))
        p, q = pts[:-1], pts[1:]
        fp, fq = self.interp(p), self.interp(q)
        cell = np.clip(np.searchsorted(grid, 0.5 * (p + q)) - 1, 0, grid.size - 2)
        width = grid[cell + 1] - grid[cell]
        for node, bp, bq in (
            (cell, (grid[cell + 1] - p) / width, (grid[cell + 1] - q) / width),
            (cell + 1, (p - grid[cell]) / width, (q - grid[cell]) / width),
        ):
            np.add.at(out, node, (q - p) / 6.0 * (2.0 * fp * bp + fp * bq + fq * bp + 2.0 * fq * bq))
        hat_mass = np.zeros(grid.size)
        hat_mass[:-1] += 0.5 * np.diff(grid)
        hat_mass[1:] += 0.5 * np.diff(grid)
        return out / hat_mass

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.spacing))

    def mean(self) -> float:
        """First moment divided by mass."""
        x = self.nodes
        m = np.trapezoid(self.values, x)
        if m <= 0:
            raise NumericalError("cannot take the mean of a zero-mass density")
        return float(np.trapezoid(x * self.values, x) / m)

    def normalized(self) -> "GridDensity1D":
        """Rescale to unit mass."""
        return GridDensity1D(self.lo, self.hi, _unit_mass(self.values, self.integral()))


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


def convolve_sum(fx: GridDensity1D, fy: GridDensity1D) -> GridDensity1D:
    """Density of X + Y for independent X, Y, both gridded at one spacing.

    Output node values are pointwise-correct wherever the inputs cover the
    integrand's support, even if the inputs are truncated elsewhere.
    Raises IncompatibleGridError when the spacings differ: resampling a
    density with an inverse-square-root edge would lose its first-cell mass.
    """
    h, hy = fx.spacing, fy.spacing
    if abs(h - hy) > _REL_TOL * max(h, hy):
        raise IncompatibleGridError(f"spacings differ: {h:.6g} vs {hy:.6g}; build both inputs at one spacing")
    vals = _conv_trap(fx.values, fy.values, h)
    lo = fx.lo + fy.lo
    return GridDensity1D(lo, lo + (vals.size - 1) * h, vals)


# ---------------------------------------------------------------------------
# Exact PL integration against bin edges.


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array without NaN, ascending: `np.unique`'s
    result, without the `numpy.ma` import that `np.unique` costs on first use."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


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
    pts = _sorted_distinct(np.clip(np.concatenate([nodes, edges]), lo, hi))
    p, q = pts[:-1], pts[1:]
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
