"""Path-length laws for straight crossings of a rectangular box.

Two entry models are provided, each with analytic densities and a
matching Monte Carlo sampler:

* rays: enter uniformly on a face interior, leave along a random
  direction ("rays" model).
* chords: connect two independent uniform surface points ("chords"
  model).

The analytic side produces exit-location densities, joint
(length, exit-location) densities per canonical face-pair class, and
combined length laws; `montecarlo` mirrors them with deterministic
multi-stream samplers, and `compare` quantifies the agreement.
"""

__version__ = "0.1.0"

from .combined import (
    CombinedLengthPdf,
    ComponentTerm,
    combined_length_pdf_chords,
    combined_length_pdf_rays,
    single_face_length_pdf,
)
from .density import GridDensity, GridDensity1D
from .errors import BoxpathError, EmptyCellError, IncompatibleGridError, NumericalError
from .geometry import (
    ALL_FACES,
    FACE_PAIRS,
    BoxDims,
    FaceId,
    FacePairClass,
    IndexTriple,
    PairKind,
    Side,
    canonical_classes,
    classify_pair,
    entry_probability,
)
from .montecarlo import (
    STREAM_COUNT,
    JointHistogram,
    TrajectoryBatch,
    canonical_histograms,
    face_counts,
    length_histogram,
    sample_chords,
    sample_rays,
)

__all__ = [
    "__version__",
    "ALL_FACES",
    "FACE_PAIRS",
    "BoxDims",
    "BoxpathError",
    "CombinedLengthPdf",
    "ComponentTerm",
    "EmptyCellError",
    "FaceId",
    "FacePairClass",
    "GridDensity",
    "GridDensity1D",
    "IncompatibleGridError",
    "IndexTriple",
    "JointHistogram",
    "NumericalError",
    "PairKind",
    "STREAM_COUNT",
    "Side",
    "TrajectoryBatch",
    "canonical_classes",
    "canonical_histograms",
    "classify_pair",
    "combined_length_pdf_chords",
    "combined_length_pdf_rays",
    "entry_probability",
    "face_counts",
    "length_histogram",
    "sample_chords",
    "sample_rays",
    "single_face_length_pdf",
]
