"""Per-layer spans recorded from the benchmark's own files.

The library has no tracing of its own, so a traced run replaces the public
functions of each module (and the scalar dunders on their classes) with
wrappers that open a span around the call.  A span has a name, a start, an
end, a parent and the number of the job it belongs to (-1 for set-up).
Self time is a span's duration minus the time covered by its child spans;
Python ``Fraction`` arithmetic cannot be wrapped, so its time lands in the
self time of the wrapped caller.  Aggregates are kept for every span;
individual non-scalar spans are kept in memory up to ``SPAN_LOG_LIMIT`` and
written out when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

SPAN_LOG_LIMIT = 50_000


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self.stack = []               # [name, start, child time, span id]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.log = []                 # [name, start, end, parent id, job]
        self.log_dropped = 0

    def enter(self, name):
        start = perf_counter()
        sid = -1
        if not name.startswith("scalars."):
            if len(self.log) < SPAN_LOG_LIMIT:
                sid = len(self.log)
                parent = self.stack[-1][3] if self.stack else -1
                self.log.append([name, start, None, parent, self.job])
            else:
                self.log_dropped += 1
        self.stack.append([name, start, 0.0, sid])

    def exit(self):
        end = perf_counter()
        name, start, child, sid = self.stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if sid >= 0:
            self.log[sid][2] = end

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.log:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")
            fh.write(json.dumps({"dropped_spans": self.log_dropped}) + "\n")


def _wrap(tracer, fn, name, hook):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = name(args) if callable(name) else name
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit()
            if hook:
                hook(tracer, args, None, exc)
            raise
        tracer.exit()
        if hook:
            hook(tracer, args, result, None)
        return result
    return wrapper


# -- counters taken where the work happens -----------------------------------

def _rref_rows(tracer, args, result, exc):
    tracer.counts["linalg.rref.rows"] += len(args[1])


def _graded_size(tracer, args, result, exc):
    if result is not None:
        tracer.counts["grading.dim_total"] += result.dim
        tracer.counts["grading.table_nnz_total"] += sum(
            len(terms) for terms in result.table.values())


def _factor_outcome(tracer, args, result, exc):
    tracer.counts["elemgroup.letters_in"] += len(args[2])
    if result is not None:
        g1, g2, _ = result
        tracer.counts["elemgroup.letters_out"] += len(g1) + len(g2)
        tracer.counts["elemgroup.certified"] += 1
    elif type(exc).__name__ == "PrecisionExhausted":
        tracer.counts["elemgroup.exhausted"] += 1


def _cocycles_found(tracer, args, result, exc):
    if result is not None:
        tracer.counts["cocycle.cocycles_found"] += len(result[1])


def _jacobi_name(args):
    rs = args[0].rs
    return "chevalley.jacobi.%s%d" % (rs.type_label, rs.rank)


# (span name, module, attribute path, hook).  Several attributes may share a
# span name; an attribute holding the same function as another shares its
# wrapper (``__rmul__ = __mul__``).
TARGETS = [
    ("scalars.TruncSeries.mul", "scalars", "TruncSeries.__mul__", None),
    ("scalars.TruncSeries.mul", "scalars", "TruncSeries.__rmul__", None),
    ("scalars.TruncSeries.add", "scalars", "TruncSeries.__add__", None),
    ("scalars.TruncSeries.add", "scalars", "TruncSeries.__radd__", None),
    ("scalars.LaurentPoly.mul", "scalars", "LaurentPoly.__mul__", None),
    ("scalars.LaurentPoly.mul", "scalars", "LaurentPoly.__rmul__", None),
    ("scalars.Cyclotomic.mul", "scalars", "Cyclotomic.__mul__", None),
    ("scalars.Cyclotomic.mul", "scalars", "Cyclotomic.__rmul__", None),
    ("scalars.Cyclotomic.add", "scalars", "Cyclotomic.__add__", None),
    ("scalars.Cyclotomic.add", "scalars", "Cyclotomic.__radd__", None),
    ("scalars.Cyclotomic.inv", "scalars", "Cyclotomic.inv", None),
    ("linalg.mat_mul", "linalg", "mat_mul", None),
    ("linalg.rref", "linalg", "rref", _rref_rows),
    ("linalg.kernel_basis", "linalg", "kernel_basis", None),
    ("linalg.solve", "linalg", "solve", None),
    ("rootsys.build_root_system", "rootsys", "build_root_system", None),
    ("chevalley.table", "chevalley", "ChevalleyAlgebra._build_table", None),
    (_jacobi_name, "chevalley", "ChevalleyAlgebra._verify_jacobi", None),
    ("chevalley.automorphism_verify", "chevalley",
     "AlgebraAutomorphism.verify", None),
    ("grading.simultaneous_eigenspaces", "grading",
     "simultaneous_eigenspaces", None),
    ("grading.q_grading_from_cartan", "grading", "q_grading_from_cartan",
     _graded_size),
    ("grading.relative_roots", "grading", "relative_roots", None),
    ("grading.bracket", "grading", "GradedLieAlgebra.bracket", None),
    ("lietorus.LT1", "lietorus", "check_LT1", None),
    ("lietorus.LT2", "lietorus", "check_LT2", None),
    ("lietorus.LT3", "lietorus", "check_LT3", None),
    ("lietorus.LT4", "lietorus", "check_LT4", None),
    ("lietorus.LT5", "lietorus", "check_LT5", None),
    ("lietorus.checks", "lietorus", "lie_torus_check", None),
    ("elemgroup.root_element", "elemgroup", "root_element", None),
    ("elemgroup.word_matrix", "elemgroup", "word_matrix", None),
    ("elemgroup.unipotent_factor", "elemgroup", "unipotent_factor", None),
    ("elemgroup.commutator_table", "elemgroup", "commutator_table", None),
    ("elemgroup.factor_loop_series", "elemgroup", "factor_loop_series",
     _factor_outcome),
    ("elemgroup.verify_factorization", "elemgroup", "_verify_factorization",
     None),
    ("cocycle.h1_enumerate", "cocycle", "h1_enumerate", _cocycles_found),
    ("cocycle.propagate", "cocycle", "_propagate", None),
    ("cocycle.is_cocycle", "cocycle", "is_cocycle", None),
    ("cocycle.twist_cocycle", "cocycle", "twist_cocycle", None),
    ("cocycle.group_init", "cocycle", "FiniteGroup.__init__", None),
    ("cocycle.inf_res_sequence", "cocycle", "inf_res_sequence", None),
    ("cocycle.diagonal_argument", "cocycle", "diagonal_argument", None),
    ("cli.parse", "cli", "build_parser", None),
    ("cli.parse", "cli", "_Parser.parse_args", None),
    ("cli.parse", "cli", "parse_spec_file", None),
    ("cli.render", "cli", "ReportBundle.render", None),
    ("cli.main", "cli", "main", None),
]


def install(tracer, lib):
    """Wrap every target on the freshly imported library ``lib``.

    A module-level function is replaced in every library module that holds
    it (``cli`` imports names from the other modules directly); a method is
    replaced on its class.  Returns a function that undoes all of it.
    """
    undo = []
    wrappers = {}
    for name, modname, path, hook in TARGETS:
        owner = getattr(lib, modname)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        orig = getattr(owner, attr)
        if id(orig) not in wrappers:
            wrappers[id(orig)] = _wrap(tracer, orig, name, hook)
        wrapper = wrappers[id(orig)]
        if parents:
            undo.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapper)
            continue
        for mod in vars(lib).values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def uninstall():
        for owner, attr, orig in reversed(undo):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
    return uninstall


# -- per-layer metrics --------------------------------------------------------

JACOBI_TYPES = ("A3", "B3", "C3", "A4", "D4", "G2")

# (metric, unit); a metric ending in .calls or .self_s reads the span of the
# same stem, the others are counters or ratios.
PER_LAYER = (
    [("scalars.TruncSeries.mul.calls", "count"),
     ("scalars.TruncSeries.mul.self_s", "s"),
     ("scalars.TruncSeries.add.self_s", "s"),
     ("scalars.LaurentPoly.mul.calls", "count"),
     ("scalars.LaurentPoly.mul.self_s", "s"),
     ("scalars.Cyclotomic.mul.calls", "count"),
     ("scalars.Cyclotomic.mul.self_s", "s"),
     ("scalars.Cyclotomic.add.self_s", "s"),
     ("scalars.Cyclotomic.inv.calls", "count"),
     ("linalg.mat_mul.calls", "count"),
     ("linalg.mat_mul.self_s", "s"),
     ("linalg.rref.calls", "count"),
     ("linalg.rref.self_s", "s"),
     ("linalg.rref.rows", "count"),
     ("linalg.kernel_basis.self_s", "s"),
     ("linalg.solve.self_s", "s"),
     ("rootsys.build_root_system.self_s", "s"),
     ("chevalley.table.self_s", "s"),
     ("chevalley.jacobi.self_s", "s")]
    + [("chevalley.jacobi.%s.self_s" % t, "s") for t in JACOBI_TYPES]
    + [("chevalley.automorphism_verify.self_s", "s"),
       ("grading.simultaneous_eigenspaces.self_s", "s"),
       ("grading.q_grading_from_cartan.self_s", "s"),
       ("grading.relative_roots.self_s", "s"),
       ("grading.bracket.calls", "count"),
       ("grading.bracket.self_s", "s"),
       ("grading.dim_total", "count"),
       ("grading.table_nnz_total", "count")]
    + [("lietorus.LT%d.self_s" % k, "s") for k in range(1, 6)]
    + [("lietorus.checks", "count"),
       ("elemgroup.root_element.calls", "count"),
       ("elemgroup.root_element.self_s", "s"),
       ("elemgroup.word_matrix.self_s", "s"),
       ("elemgroup.unipotent_factor.calls", "count"),
       ("elemgroup.unipotent_factor.self_s", "s"),
       ("elemgroup.commutator_table.self_s", "s"),
       ("elemgroup.factor_loop_series.self_s", "s"),
       ("elemgroup.verify_factorization.self_s", "s"),
       ("elemgroup.letters_in", "count"),
       ("elemgroup.letters_out", "count"),
       ("elemgroup.certified", "count"),
       ("elemgroup.exhausted", "count"),
       ("elemgroup.certified_ratio", "ratio"),
       ("cocycle.h1_enumerate.calls", "count"),
       ("cocycle.h1_enumerate.self_s", "s"),
       ("cocycle.propagate.calls", "count"),
       ("cocycle.is_cocycle.calls", "count"),
       ("cocycle.is_cocycle.self_s", "s"),
       ("cocycle.twist_cocycle.calls", "count"),
       ("cocycle.twist_cocycle.self_s", "s"),
       ("cocycle.group_init.self_s", "s"),
       ("cocycle.inf_res_sequence.self_s", "s"),
       ("cocycle.diagonal_argument.self_s", "s"),
       ("cocycle.cocycles_found", "count"),
       ("cocycle.useful_ratio", "ratio"),
       ("cli.parse.self_s", "s"),
       ("cli.render.self_s", "s"),
       ("cli.main.calls", "count"),
       ("trace.overhead_ratio", "ratio")])


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, overhead_ratio):
    c = tracer.counts
    jacobi = [n for n in tracer.calls if n.startswith("chevalley.jacobi.")]
    derived = {
        "lietorus.checks": tracer.calls["lietorus.checks"],
        "chevalley.jacobi.self_s": sum((tracer.self_s[n] for n in jacobi),
                                       0.0),
        "elemgroup.certified_ratio": _ratio(
            c["elemgroup.certified"],
            c["elemgroup.certified"] + c["elemgroup.exhausted"]),
        "cocycle.useful_ratio": _ratio(c["cocycle.cocycles_found"],
                                       tracer.calls["cocycle.propagate"]),
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for metric, unit in PER_LAYER:
        if metric in derived:
            value = derived[metric]
        elif metric.endswith(".calls"):
            value = tracer.calls[metric[:-len(".calls")]]
        elif metric.endswith(".self_s"):
            value = tracer.self_s[metric[:-len(".self_s")]]
        else:
            value = c[metric]
        out[metric] = {"value": value, "unit": unit}
    return out


# Spans that must fire on each workload in a traced run (the layers the
# workload is meant to exercise, set-up included).
REQUIRED = {
    "factor_series": [
        "scalars.TruncSeries.mul", "scalars.TruncSeries.add",
        "scalars.LaurentPoly.mul", "linalg.mat_mul",
        "chevalley.table", "chevalley.jacobi.A2", "chevalley.jacobi.B2",
        "chevalley.jacobi.G2", "elemgroup.root_element",
        "elemgroup.word_matrix", "elemgroup.factor_loop_series",
        "elemgroup.verify_factorization"],
    "unipotent_exact": [
        "scalars.Cyclotomic.mul", "scalars.Cyclotomic.add",
        "scalars.Cyclotomic.inv", "linalg.mat_mul", "chevalley.table",
        "chevalley.jacobi.A2", "grading.simultaneous_eigenspaces",
        "grading.q_grading_from_cartan", "grading.relative_roots",
        "elemgroup.root_element", "elemgroup.word_matrix",
        "elemgroup.unipotent_factor", "elemgroup.commutator_table"],
    "structure_cli": [
        "scalars.Cyclotomic.mul", "scalars.Cyclotomic.add",
        "scalars.Cyclotomic.inv", "linalg.rref", "linalg.kernel_basis",
        "linalg.solve", "rootsys.build_root_system", "chevalley.table"]
        + ["chevalley.jacobi.%s" % t for t in JACOBI_TYPES]
        + ["chevalley.automorphism_verify",
           "grading.simultaneous_eigenspaces",
           "grading.q_grading_from_cartan", "grading.relative_roots",
           "grading.bracket"]
        + ["lietorus.LT%d" % k for k in range(1, 6)]
        + ["lietorus.checks", "cli.parse", "cli.render", "cli.main"],
    "cocycle_levels": [
        "cocycle.h1_enumerate", "cocycle.propagate", "cocycle.is_cocycle",
        "cocycle.twist_cocycle", "cocycle.group_init",
        "cocycle.inf_res_sequence", "cocycle.diagonal_argument",
        "cli.parse", "cli.render", "cli.main"],
}


def silent_spans(tracer, workload):
    return [n for n in REQUIRED[workload] if not tracer.calls[n]]
