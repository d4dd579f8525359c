"""shiftpress: thermodynamic formalism on subshifts of finite type.

Pressure estimators and their transfer-operator oracle, ergodic-measure
spectra, gluing certificates, and the construction of compact invariant
subsystems with prescribed intermediate pressure.

Submodules are imported on first use of one of their names (PEP 562), so a
process loads only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "ShiftSystem", "Resolution", "count_words", "load_system",
    ),
    "potentials": ("Potential", "birkhoff_sum", "variation", "load_potential"),
    "segments": (
        "SegmentClass", "OrbitDecomposition", "all_segments", "empty_segments",
        "trivial_decomposition", "prefix_run_decomposition", "affix_bounded", "load_decomposition",
    ),
    "thermo": (
        "PressureReport", "partition_function", "pressure_enumerate", "pressure_oracle",
        "pressure_floor", "birkhoff_sup", "birkhoff_sup_sequence",
    ),
    "measures": ("spectrum_sample",),
    "gluing": ("GluingCertificate", "check_gluing", "glue_words"),
    "structure": ("ConstructConfig", "check_structure_conditions"),
    "construct": (
        "GluedSubshift", "build_glued", "select_words", "construct_intermediate",
        "verify_counting_bound", "density_experiment",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
