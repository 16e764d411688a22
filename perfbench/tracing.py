"""Outside-in tracing of alphaperm: spans around the public functions of
each module, recorded from the benchmark without editing the program.

Tracer.install() replaces every traced function in every alphaperm module
namespace that binds it (kernels.per_alpha_dp, suites.per_alpha_dp,
partitions.per_alpha_dp, ...) with a wrapper that records one span: its
name ("<namespace>.<function>"), start, end, parent span and request id.
Spans stay in memory until write_spans(); uninstall() puts every original
function object back.

A span's self time is its duration minus the part of that interval its
child spans cover. Per-layer metrics are sums of self time and counts of
calls, divided by the units the traced phase completed.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

# (defining module, function) -> layer. Functions not listed are not traced.
LAYER_OF = {
    ("kernels", "per_alpha_dp"): "kernels.dp",
    ("kernels", "cycle_sum_table"): "kernels.cycle_table",
    ("kernels", "permanent"): "kernels.ryser",
    ("kernels", "determinant"): "kernels.bareiss",
    ("kernels", "hafnian"): "kernels.hafnian",
    ("kernels", "per_alpha_naive"): "kernels.naive",
    ("fastpath", "per_alpha_dp"): "fastpath",
    ("fastpath", "permanent"): "fastpath",
    ("fastpath", "hafnian"): "fastpath",
    ("matrices", "random_matrix"): "matrices.gen",
    ("matrices", "random_symmetric_matrix"): "matrices.gen",
    ("matrices", "random_psd"): "matrices.gen",
    ("matrices", "random_unit_diag_psd"): "matrices.gen",
    ("matrices", "submatrix"): "matrices.submatrix",
    ("matrices", "doubled"): "matrices.doubled",
    ("matrices", "dumps_matrix"): "matrices.serialize",
    ("matrices", "write_matrix"): "matrices.serialize",
    ("matrices", "matrix_digest"): "matrices.serialize",
    ("matrices", "loads_matrix"): "matrices.parse",
    ("matrices", "read_matrix"): "matrices.parse",
    ("partitions", "per_beta_k"): "partitions.expansion",
    ("partitions", "sum_formula_rhs"): "partitions.expansion",
    ("partitions", "product_formula_rhs"): "partitions.expansion",
    ("partitions", "half_formula_rhs"): "partitions.expansion",
    ("partitions", "enumerate_partitions"): "partitions.enumerate",
    ("partitions", "enumerate_shape_partitions"): "partitions.enumerate",
    ("inequalities", "check_marcus"): "inequalities.family.marcus",
    ("inequalities", "check_lieb_type"): "inequalities.family.lieb_type",
    ("inequalities", "check_lieb"): "inequalities.family.lieb",
    ("inequalities", "check_fischer"): "inequalities.family.fischer",
    ("inequalities", "check_haf_per"): "inequalities.family.haf_per",
    ("inequalities", "check_majorization_step"):
        "inequalities.family.majorization",
    ("inequalities", "p_shape"): "inequalities.family.majorization",
    ("inequalities", "check_neg_positivity"):
        "inequalities.family.neg_positivity",
    ("inequalities", "compare"): "inequalities.compare",
    # the oracle is private, but it is the layer whose skipping must show
    ("inequalities", "_naive_slack"): "inequalities.oracle",
    ("inequalities", "hunt"): "inequalities.hunt",
    ("suites", "run_identity_suite"): "suites.identity",
    ("suites", "run_inequality_suite"): "suites.inequality",
    ("cli", "main"): "cli",
}

# the alphaperm modules whose namespaces bind traced functions
MODULES = ("cli", "fastpath", "inequalities", "kernels", "matrices",
           "partitions", "suites")

KERNEL_LAYERS = ("kernels.dp", "kernels.cycle_table", "kernels.ryser",
                 "kernels.bareiss", "kernels.hafnian", "kernels.naive")
# layers whose distinct_ratio is reported, with whether alpha is in the key
KEYED_LAYERS = {"kernels.dp": True, "kernels.cycle_table": False,
                "kernels.ryser": False, "kernels.bareiss": False}
FAMILIES = ("marcus", "lieb_type", "lieb", "fischer", "haf_per",
            "majorization", "neg_positivity")

# matrix kind tags kept per span, for the scalar split of kernel self time
_TAG_OF_KIND = {"rational": 1, "complex-rational": 2}


def _metric_names():
    def timed(layer):
        return [(layer + ".calls", "calls/unit"), (layer + ".self_s", "s/unit")]

    out = timed("kernels.dp") + [
        ("kernels.dp.distinct_ratio", "ratio"),
        ("kernels.dp.subset_pairs", "pairs/unit"),
    ]
    for layer in ("kernels.cycle_table", "kernels.ryser", "kernels.bareiss"):
        out += timed(layer) + [(layer + ".distinct_ratio", "ratio")]
    out += timed("kernels.hafnian") + timed("kernels.naive")
    out += [("scalars.rational_kernel_s", "s/unit"),
            ("scalars.complex_kernel_s", "s/unit")]
    for layer in ("fastpath", "matrices.gen", "matrices.submatrix",
                  "matrices.doubled", "matrices.serialize"):
        out += timed(layer)
    out.append(("matrices.parse.self_s", "s/unit"))
    out += timed("partitions.expansion")
    out.append(("partitions.enumerate.calls", "calls/unit"))
    for fam in FAMILIES:
        out += timed("inequalities.family." + fam)
    out += [("inequalities.comparisons", "calls/unit")]
    out += timed("inequalities.oracle")
    out += [("inequalities.violations", "count/unit"),
            ("inequalities.observations", "count/unit"),
            ("inequalities.hunt.self_s", "s/unit"),
            ("suites.identity.self_s", "s/unit"),
            ("suites.inequality.self_s", "s/unit"),
            ("cli.self_s", "s/unit"),
            ("trace.overhead_frac", "fraction"),
            ("trace.overhead_frac_wall", "fraction")]
    return out


# (metric name, unit) in the order BENCHMARK.json lists them
PER_LAYER_METRICS = _metric_names()


def self_times(starts, ends, parents) -> list:
    """Self time of every span: its duration minus the union of its child
    spans' intervals, clipped to its own interval."""
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        s, e = starts[i], ends[i]
        covered = 0.0
        run_s = run_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if run_e is None or cs > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = cs, ce
            else:
                run_e = max(run_e, ce)
        if run_e is not None:
            covered += run_e - run_s
        out.append((e - s) - covered)
    return out


class Tracer:
    """Wraps alphaperm's traced functions and keeps their spans in memory."""

    def __init__(self):
        self.request = -1
        self.names = []            # span name table
        self._name_ids = {}
        self.name_of = array("l")  # per span: index into self.names
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        self.tags = array("b")     # matrix kind tag of kernel spans
        self.layer_of_name = []    # per name id
        self.keys = {layer: set() for layer in KEYED_LAYERS}
        self.subset_pairs = 0
        self.violations = 0
        self.observations = 0
        self._stack = []
        self._patched = []         # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def _modules(self):
        mods = {"alphaperm": importlib.import_module("alphaperm")}
        for short in MODULES:
            mods[short] = importlib.import_module("alphaperm." + short)
        return mods

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = self._modules()
        layer_by_fn = {}
        for (mod, fname), layer in LAYER_OF.items():
            layer_by_fn[id(getattr(mods[mod], fname))] = (
                getattr(mods[mod], fname), layer)
        for short, module in mods.items():
            for attr, value in list(vars(module).items()):
                hit = layer_by_fn.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                name = "%s.%s" % (short, attr)
                wrapper = self._wrap(value, name, hit[1])
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _name_id(self, name: str, layer: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of_name.append(layer)
        return got

    def _wrap(self, fn, name: str, layer: str):
        name_id = self._name_id(name, layer)
        keyed = KEYED_LAYERS.get(layer)
        is_kernel = layer in KERNEL_LAYERS
        is_dp = layer == "kernels.dp"
        tracer = self
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(tracer.starts)
            nested = (parent >= 0 and tracer.layer_of_name[
                tracer.name_of[parent]] == layer)
            tag = 0
            if is_kernel and args:
                A = args[0]
                tag = _TAG_OF_KIND.get(getattr(A, "kind", None), 0)
                if keyed is not None and not nested:
                    key = A.rows
                    if keyed:
                        key = (key, args[1] if len(args) > 1
                               else kwargs.get("alpha"))
                    tracer.keys[layer].add(key)
                if is_dp and not nested:
                    tracer.subset_pairs += (3 ** A.n - 1) // 2
            tracer.name_of.append(name_id)
            tracer.parents.append(parent)
            tracer.requests.append(tracer.request)
            tracer.tags.append(tag)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf()
                stack.pop()
            if layer == "inequalities.hunt":
                tracer.violations += result.violations
                tracer.observations += result.observations
            elif layer == "suites.inequality":
                tracer.violations += sum(len(oc.findings) for oc in result)
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def layer_metrics(self, units: int, scale=None) -> dict:
        """Per-layer metrics of the recorded spans, per completed unit
        (trace.overhead_frac* are left to the caller). `scale` maps a request
        id to the factor its spans' self times are multiplied by."""
        own = self_times(self.starts, self.ends, self.parents)
        calls, self_s = {}, {}
        by_tag = {1: 0.0, 2: 0.0}
        for i, self_time in enumerate(own):
            if scale is not None:
                self_time *= scale[self.requests[i]]
            layer = self.layer_of_name[self.name_of[i]]
            self_s[layer] = self_s.get(layer, 0.0) + self_time
            p = self.parents[i]
            if p < 0 or self.layer_of_name[self.name_of[p]] != layer:
                calls[layer] = calls.get(layer, 0) + 1
            if layer in KERNEL_LAYERS and self.tags[i] in by_tag:
                by_tag[self.tags[i]] += self_time
        per = 1.0 / max(units, 1)
        out = {}
        for name, _unit in PER_LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                value = calls.get(layer, 0) * per
            elif field == "self_s":
                value = self_s.get(layer, 0.0) * per
            elif field == "distinct_ratio":
                n_calls = calls.get(layer, 0)
                value = len(self.keys[layer]) / n_calls if n_calls else 0.0
            else:
                continue
            out[name] = value
        out["kernels.dp.subset_pairs"] = self.subset_pairs * per
        out["scalars.rational_kernel_s"] = by_tag[1] * per
        out["scalars.complex_kernel_s"] = by_tag[2] * per
        out["inequalities.comparisons"] = (
            calls.get("inequalities.compare", 0) * per)
        out["inequalities.violations"] = self.violations * per
        out["inequalities.observations"] = self.observations * per
        return out

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            for i in range(len(self.starts)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    i, self.names[self.name_of[i]], self.starts[i],
                    self.ends[i], self.parents[i], self.requests[i]))
