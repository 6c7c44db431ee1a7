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

The names below are imported from their module on first access, so
`import boxpath` alone loads neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

# Each public name by the module that defines it.
_EXPORTS = {
    "combined": (
        "CombinedLengthPdf",
        "ComponentTerm",
        "combined_length_pdf_chords",
        "combined_length_pdf_rays",
        "single_face_length_pdf",
    ),
    "density": ("GridDensity", "GridDensity1D"),
    "errors": ("BoxpathError", "CorruptArtifactError", "EmptyCellError", "IncompatibleGridError", "NumericalError"),
    "geometry": (
        "ALL_FACES",
        "FACE_PAIRS",
        "BoxDims",
        "FaceId",
        "FacePairClass",
        "IndexTriple",
        "PairKind",
        "Side",
        "canonical_classes",
        "classify_pair",
        "entry_probability",
    ),
    "montecarlo": (
        "STREAM_COUNT",
        "JointHistogram",
        "TrajectoryBatch",
        "canonical_histograms",
        "length_histogram",
        "sample_chords",
        "sample_rays",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_OWNER)]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
