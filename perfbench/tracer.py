"""Spans and counts for the traced run, taken from outside the package.

The tracer wraps public functions and methods of ``stableforms``.  A
function imported by name into several modules (``orbits.classify7`` is
also ``calibration.classify7``, ``hyperplane.classify7``,
``cli.classify7``, ``geometry.classify7`` and ``stableforms.classify7``)
is reached through each of those names, so ``install`` rebinds every
module or class attribute that holds the original object.  A name the
scan cannot reach (a closure, a default argument, a container) would
run untraced and charge its time to the caller; ``coverage_problems``
catches that by comparing the wrapper counts with a profiler's call
counts for the same code objects.  A compiled target (the Cython F2
kernels, when built) gives the profiler no Python call to count, so it
is left out of that comparison and listed in ``Tracer.unchecked``.

A span is (op id, span id, parent span id, name, start, end); spans stay
in memory until ``write_spans``.  A layer's self time is its span
duration minus the time covered by its child spans.
"""

import importlib
import json
import sys
from collections import Counter
from time import perf_counter
from types import FunctionType

# Spans: (layer name, module, attribute path).  Some are not reported as
# metrics; they keep their time out of their callers' self time.
SPAN_TARGETS = (
    ("cli.main", "stableforms.cli", "main"),
    ("geometry.classify7", "stableforms.geometry.orbits", "classify7"),
    ("geometry.classify6", "stableforms.geometry.orbits", "classify6"),
    ("geometry.induced_bilinear", "stableforms.geometry.orbits", "induced_bilinear"),
    ("geometry.hitchin_endomorphism", "stableforms.geometry.orbits", "hitchin_endomorphism"),
    ("geometry.hitchin_dual", "stableforms.geometry.orbits", "hitchin_dual"),
    ("geometry.para_eigenspaces", "stableforms.geometry.orbits", "para_eigenspaces"),
    ("geometry.extension_admissible", "stableforms.geometry.orbits", "extension_admissible"),
    ("geometry.plane_from_cross", "stableforms.geometry.calibration", "plane_from_cross"),
    ("geometry.calibrated_swap", "stableforms.geometry.calibration", "calibrated_swap"),
    ("geometry.hyperplane_split", "stableforms.geometry.hyperplane", "hyperplane_split"),
    ("exterior.wedge", "stableforms.exterior.forms", "KForm.wedge"),
    ("exterior.contract", "stableforms.exterior.forms", "KForm.contract"),
    ("exterior.pullback", "stableforms.exterior.forms", "KForm.pullback"),
    ("exterior.evaluate", "stableforms.exterior.forms", "KForm.evaluate"),
    ("exterior.linalg.det", "stableforms.exterior.linalg", "det"),
    ("exterior.linalg.rref", "stableforms.exterior.linalg", "rref"),
    ("exterior.signature", "stableforms.exterior.bilinear", "signature"),
    ("f2.kernels.enumerate_rref", "stableforms.f2.kernels", "enumerate_rref"),
    ("f2.kernels.count_decomposable_nonzero", "stableforms.f2.kernels", "count_decomposable_nonzero"),
    ("f2.counting.grassmann_enumerate", "stableforms.f2.counting", "grassmann_enumerate"),
    ("f2.cohomology.count_extendible_slr_classes", "stableforms.f2.cohomology", "count_extendible_slr_classes"),
    ("torus.cylinder_extension", "stableforms.torus", "cylinder_extension"),
    ("torus.TrigForm.d", "stableforms.torus", "TrigForm.d"),
    ("torus.TrigForm.wedge", "stableforms.torus", "TrigForm.wedge"),
)

# Counted calls without spans: they run millions of times per op.
# (counter name, module, attribute path); several paths may share a name.
SCALAR_TARGETS = (
    ("exterior.scalar.mul", "stableforms.exterior.scalar", "Scalar.__mul__"),
    ("exterior.scalar.add", "stableforms.exterior.scalar", "Scalar.__add__"),
    ("exterior.scalar.add", "stableforms.exterior.scalar", "Scalar.__sub__"),
    ("exterior.scalar.add", "stableforms.exterior.scalar", "Scalar.__rsub__"),
    ("exterior.scalar.div", "stableforms.exterior.scalar", "Scalar.inverse"),
)
COUNT_TARGETS = (
    ("f2.kernels.rank", "stableforms.f2.kernels", "rank"),
    ("f2.kernels.rref", "stableforms.f2.kernels", "rref"),
    ("torus.gaussq.mul", "stableforms.torus", "GaussQ.__mul__"),
)

# Spans whose first argument is also recorded, to measure repeated work.
KEYED_SPANS = {"geometry.induced_bilinear"}

# Per-layer metrics: (name, unit, better, end-to-end metric and workload
# it should move).  Per-op values are divided by the ops of the traced pass.
LAYER_METRICS = (
    ("exterior.scalar.mul_calls", "count/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.scalar.add_calls", "count/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.scalar.div_calls", "count/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.scalar.max_coeff_bits", "bits", "lower", "cpu_ms_per_op on dense-rational, dense-radical"),
    ("exterior.scalar.radical_share", "ratio", "lower", "ops_per_s on dense-radical"),
    ("exterior.wedge.calls", "count/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.wedge.self_ms", "ms/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.merge_signed.calls", "count/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.merge_signed.hit_ratio", "ratio", "higher", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.contract.self_ms", "ms/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.pullback.self_ms", "ms/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.evaluate.self_ms", "ms/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.linalg.det.calls", "count/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.linalg.det.self_ms", "ms/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.linalg.rref.self_ms", "ms/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("exterior.signature.self_ms", "ms/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("geometry.induced_bilinear.self_ms", "ms/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("geometry.induced_bilinear.calls", "count/op", "lower", "latency_p90_ms on dense-rational, dense-radical"),
    ("geometry.induced_bilinear.distinct_ratio", "ratio", "higher", "latency_p90_ms on dense-rational, dense-radical"),
    ("geometry.hitchin_endomorphism.calls", "count/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("geometry.hitchin_endomorphism.self_ms", "ms/op", "lower", "cpu_ms_per_op, ops_per_s on dense-rational, dense-radical"),
    ("geometry.classify7.calls", "count/op", "lower", "latency_p90_ms on dense-rational, dense-radical"),
    ("geometry.calibrated_swap.self_ms", "ms/op", "lower", "latency_p90_ms on dense-rational, dense-radical"),
    ("geometry.hyperplane_split.self_ms", "ms/op", "lower", "latency_p90_ms on dense-rational, dense-radical"),
    ("geometry.extension_admissible.self_ms", "ms/op", "lower", "latency_p90_ms on dense-rational, dense-radical"),
    ("cli.main.self_ms", "ms/op", "lower", "ops_per_s on cli-fixtures"),
    ("f2.kernels.rank.calls", "count/op", "lower", "ops_per_s, latency_p90_ms on torus-topology"),
    ("f2.kernels.rref.calls", "count/op", "lower", "ops_per_s, latency_p90_ms on torus-topology"),
    ("f2.kernels.enumerate_rref.self_ms", "ms/op", "lower", "ops_per_s, latency_p90_ms on torus-topology"),
    ("f2.kernels.count_decomposable_nonzero.self_ms", "ms/op", "lower", "ops_per_s, latency_p90_ms on torus-topology"),
    ("f2.cohomology.count_extendible_slr_classes.self_ms", "ms/op", "lower", "ops_per_s, latency_p90_ms on torus-topology"),
    ("torus.TrigForm.d.self_ms", "ms/op", "lower", "ops_per_s on torus-topology"),
    ("torus.TrigForm.wedge.self_ms", "ms/op", "lower", "ops_per_s on torus-topology"),
    ("torus.gaussq.mul_calls", "count/op", "lower", "ops_per_s on torus-topology"),
    ("trace.overhead_ratio", "ratio", "higher", "none: traced ops_per_s over untraced ops_per_s"),
)


def _resolve(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _package_namespaces():
    """Every module and class namespace of the package, each once."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "stableforms" or name.startswith("stableforms.")):
            continue
        for owner in [mod] + [
            v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__.startswith("stableforms")
        ]:
            if id(owner) not in seen:
                seen.add(id(owner))
                yield owner


class Tracer:
    """Wraps the targets while installed; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self.span_time = Counter()   # name -> seconds of self time
        self.span_calls = Counter()  # name -> calls
        self.calls = Counter()       # counter name -> calls
        self.hits = Counter()        # counter name -> calls with a useful result
        self.radical_ops = 0
        self.max_bits = 0
        self.keyed_calls = Counter()
        self.keyed_distinct = Counter()
        self._keys = {}
        self._stack = []
        self._next_id = 0
        self._undo = []
        self._wrapped = []           # (original function, name, kind)
        self.unchecked = set()       # names of compiled targets
        self.op_id = None
        self.ops = 0

    # -- wrappers -------------------------------------------------------

    def _span(self, name, orig):
        spans, stack = self.spans, self._stack
        span_time, span_calls = self.span_time, self.span_calls
        keyed = name in KEYED_SPANS
        tracer = self

        def wrapper(*args, **kwargs):
            if keyed:
                tracer._record_key(name, args[0])
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                span_calls[name] += 1
                span_time[name] += dur - frame[1]
                spans.append((tracer.op_id, sid, parent, name, start, end))

        return wrapper

    def _scalar(self, name, orig):
        calls, tracer = self.calls, self

        def wrapper(self, *other):
            out = orig(self, *other)
            calls[name] += 1
            if self.d or (other and getattr(other[0], "d", 0)):
                tracer.radical_ops += 1
            if out is not NotImplemented:
                a, b = out.a, out.b
                bits = max(
                    a.numerator.bit_length(), a.denominator.bit_length(),
                    b.numerator.bit_length(), b.denominator.bit_length(),
                )
                if bits > tracer.max_bits:
                    tracer.max_bits = bits
            return out

        return wrapper

    def _count(self, name, orig):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return orig(*args)

        return wrapper

    def _merge(self, name, orig):
        calls, hits = self.calls, self.hits

        def wrapper(left, right):
            out = orig(left, right)
            calls[name] += 1
            if out[1]:  # sign 0: the index sets overlap and the merge is wasted
                hits[name] += 1
            return out

        return wrapper

    def _record_key(self, name, form):
        key = (form.dim, form.degree, frozenset(form.terms.items()))
        seen = self._keys.setdefault(name, set())
        self.keyed_calls[name] += 1
        if key not in seen:
            seen.add(key)
            self.keyed_distinct[name] += 1

    # -- installation -----------------------------------------------------

    def install(self):
        plan = [(n, m, p, self._span, "span") for n, m, p in SPAN_TARGETS]
        plan += [(n, m, p, self._scalar, "count") for n, m, p in SCALAR_TARGETS]
        plan += [(n, m, p, self._count, "count") for n, m, p in COUNT_TARGETS]
        plan.append(("exterior.merge_signed", "stableforms.exterior.forms", "merge_signed", self._merge, "count"))
        namespaces = list(_package_namespaces())
        for name, module, path, make, kind in plan:
            orig = _resolve(module, path)
            wrapper = make(name, orig)
            self._wrapped.append((orig, name, kind))
            if not isinstance(orig, FunctionType):
                self.unchecked.add(name)
            for owner in namespaces:
                for attr, value in list(vars(owner).items()):
                    if value is orig:
                        setattr(owner, attr, wrapper)
                        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- ops ----------------------------------------------------------------

    def run_op(self, op_id, kind, call):
        """Run one op under a root span named after its kind."""
        self.op_id = op_id
        self._keys = {}
        root = self._span("op." + kind, call)
        try:
            return root()
        finally:
            self.ops += 1

    # -- results --------------------------------------------------------------

    def layer_metrics(self, overhead_ratio):
        ops = self.ops or 1

        def ratio(num, den):
            return num / den if den else 0.0

        scalar_ops = sum(self.calls[n] for n in ("exterior.scalar.mul", "exterior.scalar.add", "exterior.scalar.div"))
        values = {
            "exterior.scalar.max_coeff_bits": self.max_bits,
            "exterior.scalar.radical_share": ratio(self.radical_ops, scalar_ops),
            "exterior.merge_signed.hit_ratio": ratio(
                self.hits["exterior.merge_signed"], self.calls["exterior.merge_signed"]
            ),
            "geometry.induced_bilinear.distinct_ratio": ratio(
                self.keyed_distinct["geometry.induced_bilinear"], self.keyed_calls["geometry.induced_bilinear"]
            ),
            "trace.overhead_ratio": overhead_ratio,
        }
        for name, _, _, _ in LAYER_METRICS:
            layer, _, stat = name.rpartition(".")
            if name in values:
                continue
            if stat == "self_ms":
                values[name] = 1e3 * self.span_time[layer] / ops
            elif stat == "calls":  # a span or a plain counter
                values[name] = (self.span_calls[layer] or self.calls[layer]) / ops
            else:  # exterior.scalar.mul_calls and the like
                values[name] = self.calls[layer + "." + stat.removesuffix("_calls")] / ops
        return {n: {"value": values[n], "unit": u} for n, u, _, _ in LAYER_METRICS}

    def count_metrics(self):
        """The counts that must repeat exactly on the same seed."""
        return {
            "span_calls": dict(sorted(self.span_calls.items())),
            "calls": dict(sorted(self.calls.items())),
            "hits": dict(sorted(self.hits.items())),
            "radical_ops": self.radical_ops,
            "max_bits": self.max_bits,
            "keyed_distinct": dict(sorted(self.keyed_distinct.items())),
        }

    def write_spans(self, path, meta):
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "fields": ["op", "id", "parent", "name", "start_ns", "end_ns"]}) + "\n")
            for op, sid, parent, name, start, end in sorted(self.spans, key=lambda s: s[1]):
                fh.write(json.dumps([op, sid, parent, name, round((start - t0) * 1e9), round((end - t0) * 1e9)]) + "\n")


def coverage_problems(run):
    """Run ``run(tracer)`` with a fresh tracer installed, under a profiler.

    Returns the tracer and one message per traced function whose wrapper
    saw another number of calls than the profiler saw for its code object
    (an alias the tracer missed).  Compiled targets are not compared.
    """
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            seen[frame.f_code] += 1

    tracer = Tracer()
    tracer.install()
    sys.setprofile(profile)
    try:
        run(tracer)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    profiled = Counter()
    kinds = {}
    for orig, name, kind in tracer._wrapped:
        if name not in tracer.unchecked:
            profiled[name] += seen[orig.__code__]
            kinds[name] = kind
    problems = []
    for name, kind in sorted(kinds.items()):
        traced = tracer.span_calls[name] if kind == "span" else tracer.calls[name]
        if traced != profiled[name]:
            problems.append(f"{name}: {traced} traced calls, {profiled[name]} profiled calls")
    return tracer, problems
