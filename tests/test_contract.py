"""The fixed contract: the public names and the functions that the
benchmark tracer (`perfbench/tracer.py`) wraps by name.

The tracer finds each target by module and attribute path and rebinds
every attribute that holds the same function object, so each target
must stay a distinct Python function: two targets sharing one function
would charge one layer's calls to the other.  The tracer module is only
read here, never installed.
"""

import importlib
from pathlib import Path
from types import FunctionType, ModuleType

import stableforms
import stableforms.f2
import stableforms.torus

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    """Run the tracer's source in a fresh module, writing no bytecode."""
    module = ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


def _resolve(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_targets_are_distinct_functions():
    tracer = _load_tracer()
    targets = list(tracer.SPAN_TARGETS + tracer.SCALAR_TARGETS + tracer.COUNT_TARGETS)
    targets.append(("exterior.merge_signed", "stableforms.exterior.forms", "merge_signed"))
    resolved = {}
    for _, module, path in targets:
        obj = _resolve(module, path)
        assert isinstance(obj, FunctionType), f"{module}.{path} is not a Python function"
        resolved[f"{module}.{path}"] = obj
    assert len(resolved) == len(targets)
    assert len({id(f) for f in resolved.values()}) == len(resolved)
    # the two wedge spans stay apart
    assert resolved["stableforms.exterior.forms.KForm.wedge"] is not (
        resolved["stableforms.torus.TrigForm.wedge"]
    )


def test_public_names_are_pinned():
    assert stableforms.__all__ == [
        "DegenerateMetricError", "DimensionError", "Endo", "EnumerationLimitError",
        "HyperplaneKind", "HyperplaneSplit", "KForm", "NotCalibratedError",
        "NullHyperplaneError", "Orbit6", "Orbit7", "OrbitError", "OrientedPlane",
        "Scalar", "ScalarContextError", "Signature", "StableFormsError",
        "SymBilinear", "basis_vector", "calibrated_swap", "classify6", "classify7",
        "contract", "cross_product", "extension_admissible", "f2", "hermitian_form",
        "hitchin_dual", "hitchin_endomorphism", "hitchin_invariant", "hodge_star",
        "hyperplane_split", "induced_bilinear", "is_calibrated",
        "is_positively_calibrated", "para_eigenspaces", "para_hermitian_form",
        "plane_from_cross", "pullback", "signature", "standard_form",
        "top_coefficient", "torus", "wedge",
    ]
    assert stableforms.f2.__all__ == [
        "F2ExtClass", "F2Matrix", "IMPL", "LineBundleSum",
        "count_extendible_slr_classes", "count_slc_classes", "cup",
        "decomposable_nonzero_count", "general_linear_count", "grassmann_count",
        "grassmann_enumerate", "is_decomposable", "plane_stabilizer_elements",
        "plane_stabilizer_identity", "plane_stabilizer_mul", "plucker_class",
        "projective_count", "q_pochhammer", "stiefel_whitney",
    ]
    for name in stableforms.__all__ + ["f2." + n for n in stableforms.f2.__all__]:
        assert _resolve("stableforms", name) is not None
    torus_names = {
        name for name, value in vars(stableforms.torus).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == "stableforms.torus"
    }
    assert torus_names == {"GaussQ", "TrigForm", "TrigScalar", "cylinder_extension", "phase_family"}
