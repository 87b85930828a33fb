"""Command-line interface.

Subcommands: classify, decompose, swap, extend-check, grassmann,
torus-classes.  Payload JSON goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 2 parse error, 3 unsupported input, 4 null
hyperplane, 5 enumeration refused, 6 plane not calibrated.
"""

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction

from .errors import (
    DegenerateMetricError,
    DimensionError,
    EnumerationLimitError,
    NotCalibratedError,
    NullHyperplaneError,
    OrbitError,
    ScalarContextError,
)
from .exterior import KForm, Scalar
from .exterior.scalar import _PLAIN as _RATIONAL
from .f2 import (
    count_extendible_slr_classes,
    count_slc_classes,
    grassmann_count,
    grassmann_enumerate,
)
from .geometry import (
    Orbit6,
    OrientedPlane,
    calibrated_swap,
    classify6,
    classify7,
    extension_admissible,
    hyperplane_split,
)

EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_NULL = 4
EXIT_ENUM = 5
EXIT_NOT_CALIBRATED = 6


# Every count printed is bounded by its size estimate: 14000 bits are at
# most 4215 decimal digits, inside the interpreter's 4300-digit limit for
# converting an int to a string.
MAX_COUNT_BITS = 14000


class CliFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# The exit code of each error a subcommand lets through, first match
# first; a CliFailure carries its own code.
_EXIT_CODES = (
    (NullHyperplaneError, EXIT_NULL),
    (NotCalibratedError, EXIT_NOT_CALIBRATED),
    (EnumerationLimitError, EXIT_ENUM),
    (OrbitError, EXIT_UNSUPPORTED),
    (DimensionError, EXIT_UNSUPPORTED),
    (DegenerateMetricError, EXIT_UNSUPPORTED),
    (ScalarContextError, EXIT_UNSUPPORTED),
    (ValueError, EXIT_PARSE),
)
_CAUGHT = (CliFailure,) + tuple(error for error, _ in _EXIT_CODES)


def _read_form(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliFailure(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    try:
        form = KForm.from_json(json.loads(raw.decode("utf-8")))
    except (ValueError, DimensionError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: json.loads on deeply nested arrays or objects
        raise CliFailure(EXIT_PARSE, f"cannot parse {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    return form, {"path": path, "sha256": digest}


def _parse_vector(text, length, what):
    parts = text.split(",")
    if len(parts) != length:
        raise CliFailure(
            EXIT_PARSE, f"{what} needs {length} comma-separated rationals"
        )
    try:
        # p or p/q only: Fraction alone also takes exponents, and
        # "1e1000000" would be a million-digit integer
        if not all(_RATIONAL.fullmatch(p.strip()) for p in parts):
            raise ValueError("entries must be rationals p or p/q")
        return tuple(Scalar(Fraction(p)) for p in parts)
    except ValueError as exc:  # also an integer of more than 4300 digits
        raise CliFailure(EXIT_PARSE, f"malformed {what}: {exc}") from exc


def _report(args_echo, inputs, result):
    return {
        "command": args_echo,
        "inputs": inputs,
        "exact": True,
        "result": result,
    }


def _classify_payload(form):
    if form.dim == 7 and form.degree == 3:
        cls = classify7(form)
        return {
            "orbit": cls.orbit.value,
            "signature": list(cls.signature),
        }
    if form.dim == 6 and form.degree == 3:
        cls = classify6(form)
        return {"orbit": cls.orbit.value, "lambda": str(cls.invariant)}
    raise CliFailure(
        EXIT_UNSUPPORTED,
        f"classification needs a 3-form on R^6 or R^7, "
        f"got degree {form.degree} on R^{form.dim}",
    )


def _cmd_classify(args):
    form, digest = _read_form(args.path)
    return [digest], _classify_payload(form)


def _cmd_decompose(args):
    form, digest = _read_form(args.path)
    theta = _parse_vector(args.theta, 7, "--theta")
    split = hyperplane_split(form, theta)
    rho_cls = classify6(split.rho)
    admissible = (
        extension_admissible(split.rho, split.omega)
        if rho_cls.orbit is not Orbit6.DEGENERATE
        else False
    )
    result = {
        "type": split.kind.value,
        "omega": split.omega.to_json(),
        "rho": split.rho.to_json(),
        "rho_orbit": rho_cls.orbit.value,
        "admissible": admissible,
    }
    return [digest], result


def _cmd_swap(args):
    form, digest = _read_form(args.path)
    vectors = [
        _parse_vector(part, 7, "--plane vector") for part in args.plane.split(";")
    ]
    if len(vectors) != 3:
        raise CliFailure(EXIT_PARSE, "--plane needs 3 semicolon-separated vectors")
    try:
        plane = OrientedPlane(7, vectors)
    except DimensionError as exc:
        raise NotCalibratedError(str(exc)) from exc
    swapped = calibrated_swap(form, plane)
    cls = classify7(swapped)
    return [digest], {"orbit": cls.orbit.value, "form": swapped.to_json()}


def _cmd_extend_check(args):
    rho, d1 = _read_form(args.rho)
    omega, d2 = _read_form(args.omega)
    cls = classify6(rho)
    verdict = extension_admissible(rho, omega)
    return [d1, d2], {"rho_orbit": cls.orbit.value, "admissible": verdict}


def _bound_count(bits, what):
    """Refuse a count whose estimated size exceeds MAX_COUNT_BITS."""
    if bits > MAX_COUNT_BITS:
        raise CliFailure(
            EXIT_UNSUPPORTED,
            f"{what} has about {round(bits)} bits, above the limit of {MAX_COUNT_BITS}",
        )


def _cmd_grassmann(args):
    q, n, k = args.q, args.n, args.k
    if q >= 2 and 0 <= k <= n:
        # [n, k]_q < 4 q^(k(n-k)), so the estimate is good to 2 bits
        _bound_count(k * (n - k) * math.log2(q), "the subspace count")
    count = grassmann_count(q, n, k)
    verified = False
    if args.brute_force:
        if args.q != 2:
            raise CliFailure(
                EXIT_ENUM, "brute-force enumeration is only available over GF(2)"
            )
        planes = grassmann_enumerate(args.n, args.k)
        verified = len(planes) == count
    return [], {
        "q": args.q,
        "n": args.n,
        "k": args.k,
        "count": count,
        "brute_force_verified": verified,
    }


def _cmd_torus_classes(args):
    # 2^n classes of complex type and fewer than 4^(n-1) of split type
    _bound_count(max(args.n, 2 * (args.n - 1)), "the class count")
    return [], {
        "n": args.n,
        "slc": count_slc_classes(args.n),
        "extendible_slr": count_extendible_slr_classes(args.n),
    }


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stableforms",
        description="Exact computations with stable 3-forms and mod-2 "
        "characteristic classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="orbit of a 3-form from a JSON file")
    p.add_argument("path")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "decompose", help="split a split-type form along a hyperplane"
    )
    p.add_argument("path")
    p.add_argument(
        "--theta", required=True, help="covector: 7 comma-separated rationals"
    )
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("swap", help="reflect a form across a calibrated plane")
    p.add_argument("path")
    p.add_argument(
        "--plane",
        required=True,
        help="3 vectors, semicolon-separated, each 7 comma-separated rationals",
    )
    p.set_defaults(handler=_cmd_swap)

    p = sub.add_parser(
        "extend-check", help="extension admissibility of a (3-form, 2-form) pair"
    )
    p.add_argument("rho")
    p.add_argument("omega")
    p.set_defaults(handler=_cmd_extend_check)

    p = sub.add_parser("grassmann", help="count k-planes in n-space over GF(q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--brute-force",
        action="store_true",
        help="also enumerate canonical RREF matrices (GF(2) only)",
    )
    p.set_defaults(handler=_cmd_grassmann)

    p = sub.add_parser(
        "torus-classes", help="homotopy-class counts on the n-torus"
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_torus_classes)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, result = args.handler(args)
    except _CAUGHT as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliFailure):
            return exc.code
        return next(code for error, code in _EXIT_CODES if isinstance(exc, error))
    report = _report(["stableforms"] + argv, inputs, result)
    print(json.dumps(report, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
