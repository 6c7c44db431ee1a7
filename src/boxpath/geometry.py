"""Box geometry: faces, entry probabilities, and face-pair classification.

A trajectory enters a rectangular box through one face and exits through
another.  The 30 ordered (entry, exit) face pairs collapse, by symmetry,
onto 9 canonical classes: 3 with parallel (opposing) faces and 6 with
perpendicular (adjacent) faces.  Each class fixes an index triple (i, j, k)
where j is the entry-face axis; the canonical frame places the entry face
on the plane x_j = 0, an opposing exit on x_j = X_j, and an adjacent exit
on x_k = 0.  `joint_frame` gives that frame's (length, exit) axes, which
every class law and histogram uses.  Mapping any concrete pair onto its
class is a composition of axis reflections.  `FACE_PAIRS` classifies all
30 pairs once; the sampler binning, the length mixtures and the location
law all read it.

Axes are numbered 1..3 in the public API.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

__all__ = [
    "ALL_FACES",
    "BoxDims",
    "FACE_PAIRS",
    "FaceId",
    "FacePairClass",
    "IndexTriple",
    "PairKind",
    "Side",
    "canonical_classes",
    "classify_pair",
    "entry_probability",
    "joint_frame",
]


class Side(IntEnum):
    """Which of the two parallel planes perpendicular to an axis."""

    LOW = 0
    HIGH = 1


class PairKind(Enum):
    """Relative orientation of an ordered (entry, exit) face pair."""

    OPPOSING = "opposing"
    ADJACENT = "adjacent"


@dataclass(frozen=True)
class BoxDims:
    """Edge lengths of the box, all strictly positive and finite.

    The laws and samplers square the edges and multiply them into face
    areas, so each square and each area must be a normal double and the
    squared diagonal finite: at (1e-200,)*3 every area underflows to 0 and
    the sampler never finishes, and at (1, 1, 1e200) every length is inf.
    """

    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        for name, value in (("x1", self.x1), ("x2", self.x2), ("x3", self.x3)):
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"box dimension {name} must be positive and finite, got {value!r}")
        dims = [float(self.x1), float(self.x2), float(self.x3)]
        squares = [x * x for x in dims]
        # A face area lies between two of the squares, so it is normal when they are.
        if not (all(sys.float_info.min <= v < math.inf for v in squares) and math.isfinite(sum(squares))):
            raise ValueError(
                f"box {dims} is out of range: each squared edge, and so each face area, must be "
                "a normal double, and the squared diagonal finite"
            )

    @classmethod
    def from_any(cls, dims: "BoxDims | tuple | list | np.ndarray") -> "BoxDims":
        if isinstance(dims, BoxDims):
            return dims
        arr = [float(v) for v in dims]
        if len(arr) != 3:
            raise ValueError(f"expected 3 box dimensions, got {len(arr)}")
        return cls(*arr)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3], dtype=float)

    def dim(self, axis: int) -> float:
        """Edge length along a 1-based axis."""
        return (self.x1, self.x2, self.x3)[_check_axis(axis) - 1]

    @property
    def diagonal(self) -> float:
        return float(np.hypot(np.hypot(self.x1, self.x2), self.x3))

    @property
    def surface_area(self) -> float:
        return 2.0 * (self.x1 * self.x2 + self.x1 * self.x3 + self.x2 * self.x3)


def _check_axis(axis: int) -> int:
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis!r}")
    return axis


@dataclass(frozen=True)
class FaceId:
    """One of the six faces: the plane where coordinate `axis` is 0 or X."""

    axis: int
    side: Side

    def __post_init__(self) -> None:
        _check_axis(self.axis)
        object.__setattr__(self, "side", Side(self.side))

    @property
    def code(self) -> int:
        """Stable small-integer encoding, 0..5."""
        return (self.axis - 1) * 2 + int(self.side)

    @classmethod
    def from_code(cls, code: int) -> "FaceId":
        if not 0 <= code <= 5:
            raise ValueError(f"face code must be in 0..5, got {code!r}")
        return cls(axis=code // 2 + 1, side=Side(code % 2))

    @property
    def plane_axes(self) -> tuple[int, int]:
        """The two in-plane axes, ascending; local coordinates follow this order."""
        return tuple(a for a in (1, 2, 3) if a != self.axis)  # type: ignore[return-value]

    def area(self, box: BoxDims) -> float:
        p, q = self.plane_axes
        return box.dim(p) * box.dim(q)

    def __str__(self) -> str:
        return f"x{self.axis}={'X' + str(self.axis) if self.side == Side.HIGH else '0'}"


ALL_FACES: tuple[FaceId, ...] = tuple(FaceId.from_code(c) for c in range(6))


def entry_probability(box: BoxDims, face: FaceId) -> float:
    """Probability that a uniform surface point falls on `face`.

    Proportional to face area: X_p X_q / (2 (X1 X2 + X1 X3 + X2 X3)).
    The six values sum to one.
    """
    box = BoxDims.from_any(box)
    return face.area(box) / box.surface_area


# Even permutations of (1, 2, 3) keyed by their middle element.  For an
# opposing pair only the entry axis j is distinguished, so the canonical
# index triple is pinned to the even permutation with j in the middle.
_EVEN_BY_MIDDLE = {1: (3, 1, 2), 2: (1, 2, 3), 3: (2, 3, 1)}


@dataclass(frozen=True)
class IndexTriple:
    """Canonical axis roles: i in-plane, j entry axis, k third axis.

    For opposing pairs (i, j, k) is the even permutation of (1, 2, 3) with
    the entry axis in the middle; for adjacent pairs k is the exit axis and
    any of the six permutations can occur.
    """

    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if sorted((self.i, self.j, self.k)) != [1, 2, 3]:
            raise ValueError(f"(i, j, k) must be a permutation of (1, 2, 3), got {(self.i, self.j, self.k)}")

    @property
    def as_tuple(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.k)

    def dims(self, box: BoxDims) -> tuple[float, float, float]:
        """The canonical edge lengths (X_i, X_j, X_k)."""
        return box.dim(self.i), box.dim(self.j), box.dim(self.k)

    def exit_axes(self, kind: PairKind) -> tuple[int, int]:
        """The axes of the canonical exit coordinates: (i, k) on an opposing exit, (i, j) on an adjacent one."""
        return (self.i, self.k) if kind is PairKind.OPPOSING else (self.i, self.j)

    def __str__(self) -> str:
        return f"(i={self.i}, j={self.j}, k={self.k})"


@dataclass(frozen=True)
class FacePairClass:
    """An ordered face pair together with its reduction onto a canonical class.

    `reflected_axes` lists the axes whose coordinate must be mirrored
    (v -> X_v - v) to move the pair into the canonical frame.
    """

    kind: PairKind
    indices: IndexTriple
    entry_face: FaceId
    exit_face: FaceId
    reflected_axes: frozenset[int]

    @property
    def label(self) -> str:
        if self.kind is PairKind.OPPOSING:
            return f"opposing-entry{self.indices.j}"
        return f"adjacent-entry{self.indices.j}-exit{self.indices.k}"

    @property
    def exit_frame(self) -> tuple[tuple[int, int, bool], tuple[int, int, bool]]:
        """For each canonical exit coordinate: its axis, the exit-face local
        column it is read from, and whether it is mirrored (x -> X - x)."""
        plane = self.exit_face.plane_axes
        uv = self.indices.exit_axes(self.kind)
        return tuple((axis, plane.index(axis), axis in self.reflected_axes) for axis in uv)  # type: ignore[return-value]

    def law_key(self, box: BoxDims) -> tuple:
        """(kind, X_i, X_j, X_k): the class laws see the box only through these
        and the diagonal, so classes with equal keys share one law."""
        return (self.kind, *self.indices.dims(box))

    def exit_local_to_canonical(self, box: BoxDims, ab: np.ndarray) -> np.ndarray:
        """Map exit-face local coordinates (ascending-axis order) to canonical ones.

        The canonical exit coordinates are (x_i, x_k) on the plane x_j = X_j
        for opposing pairs and (x_i, x_j) on the plane x_k = 0 for adjacent
        pairs.
        """
        box = BoxDims.from_any(box)
        ab = np.atleast_2d(np.asarray(ab, dtype=float))
        out = np.empty((ab.shape[0], 2))
        for c, (axis, col, mirror) in enumerate(self.exit_frame):
            out[:, c] = box.dim(axis) - ab[:, col] if mirror else ab[:, col]
        return out


def joint_frame(box: BoxDims, kind: PairKind, indices: IndexTriple) -> tuple[tuple[tuple[float, float], ...], tuple[str, ...]]:
    """The (length n, exit u, exit v) domain of a class law and its axis names.

    An opposing path is at least X_j long and an adjacent one may be
    arbitrarily short; every path is at most the diagonal.  The exit
    coordinates run over the edges of `IndexTriple.exit_axes`.
    """
    u, v = indices.exit_axes(kind)
    n_lo = box.dim(indices.j) if kind is PairKind.OPPOSING else 0.0
    domain = ((n_lo, box.diagonal), (0.0, box.dim(u)), (0.0, box.dim(v)))
    return domain, ("n", f"x{u}", f"x{v}")


def classify_pair(entry: FaceId, exit: FaceId) -> FacePairClass:
    """Reduce an ordered (entry, exit) face pair to its canonical class.

    Raises ValueError for a same-face pair, which has no traversal class.
    """
    if entry == exit:
        raise ValueError(f"entry and exit coincide ({entry}); same-face pairs carry no traversal")
    reflected: set[int] = set()
    if entry.side == Side.HIGH:
        reflected.add(entry.axis)
    if entry.axis == exit.axis:
        kind = PairKind.OPPOSING
        indices = IndexTriple(*_EVEN_BY_MIDDLE[entry.axis])
        # Reflecting the entry axis also carries the opposing exit onto x_j = X_j.
    else:
        kind = PairKind.ADJACENT
        j, k = entry.axis, exit.axis
        indices = IndexTriple(6 - j - k, j, k)
        if exit.side == Side.HIGH:
            reflected.add(exit.axis)
    return FacePairClass(
        kind=kind,
        indices=indices,
        entry_face=entry,
        exit_face=exit,
        reflected_axes=frozenset(reflected),
    )


# The 30 ordered (entry, exit) pairs, by entry code and then exit code.
FACE_PAIRS: tuple[FacePairClass, ...] = tuple(
    classify_pair(entry, exit) for entry in ALL_FACES for exit in ALL_FACES if entry != exit
)


def canonical_classes() -> list[FacePairClass]:
    """The 9 canonical classes via their reflection-free pairs: 3 opposing, then 6 adjacent."""
    reps = [pair for pair in FACE_PAIRS if not pair.reflected_axes]
    return sorted(reps, key=lambda pair: pair.kind is PairKind.ADJACENT)
