"""Run one shiftpress CLI invocation with spans around each layer's functions.

Usage: ``python3 perfbench/trace_runner.py SPANS_FILE <cli args...>``
with ``src`` on ``PYTHONPATH``. The runner wraps every function named in
``HOOKS`` in each ``shiftpress`` module that bound it by name (so
``from .thermo import pressure_oracle`` in ``construct`` is traced too),
calls ``shiftpress.cli.main`` with the remaining arguments, and exits with
its return code. Spans and counts stay in memory and are written to
SPANS_FILE as JSON when the command has finished. A hook whose target no
longer exists is listed under ``missing``, and a count that cannot be
computed from a changed signature under ``count_errors``, instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time


def _rows(words) -> int:
    return int(words.shape[0])


def _word_matrix_counts(args, kwargs, result):
    return {"rows": _rows(result), "bytes_computed": int(result.size * result.itemsize)}


def _segment_batch_counts(args, kwargs, result):
    seg, words = args[0], args[1]
    per_row = seg.kind == "generic" and seg.membership_batch is None
    return {"rows": _rows(words), "predicate_rows": _rows(words) if per_row else 0}


def _density_counts(args, kwargs, result):
    return {
        "construct.alpha_rows": len(result.rows),
        "construct.certified_rows": sum(1 for r in result.rows if r.certified),
    }


# (span name, module, attribute or Class.method, counts(args, kwargs, result))
# Counts are computed from argument and result shapes, not read from the
# program. A count named with a bare suffix is reported as "<span>.<suffix>";
# one whose key contains a dot is reported under that key as is.
HOOKS = [
    ("cli.load_inputs", "cli", "_load_inputs", None),
    ("cli.emit", "cli", "_emit", None),
    ("core.word_matrix", "core", "word_matrix", _word_matrix_counts),
    ("core.count_words", "core", "count_words", None),
    ("core.shortest_connectors", "core", "shortest_connectors", None),
    ("potentials.birkhoff_batch", "potentials", "birkhoff_batch",
     lambda a, kw, r: {"rows": _rows(a[1])}),
    ("segments.batch", "segments", "SegmentClass.batch", _segment_batch_counts),
    ("kernels.words", "kernels", "word_matrix", None),
    ("kernels.birkhoff", "kernels", "birkhoff_kernel",
     lambda a, kw, r: {"ops_computed": _rows(a[0]) * int(a[1])}),
    ("kernels.karp", "kernels", "karp_kernel",
     lambda a, kw, r: {"ops_computed": int(a[0]) * len(a[1])}),
    ("thermo.lift", "thermo", "_Lift.__init__", None),
    ("thermo.partition_function", "thermo", "partition_function", None),
    ("thermo.partition_dp", "thermo", "_partition_all_dp", None),
    ("thermo.pressure_enumerate", "thermo", "pressure_enumerate", None),
    ("thermo.pressure_oracle", "thermo", "pressure_oracle", None),
    ("thermo.perron_log", "thermo", "perron_log",
     lambda a, kw, r: {"iterations": int(r[2]["iterations"])}),
    ("thermo.pressure_floor", "thermo", "pressure_floor", None),
    ("thermo.birkhoff_sup", "thermo", "birkhoff_sup", None),
    ("measures.spectrum_sample", "measures", "spectrum_sample",
     lambda a, kw, r: {"measures.entries": len(r.entries)}),
    ("measures.gibbs_chain", "measures", "gibbs_chain", None),
    ("measures.primitive_cycles", "measures", "primitive_cycles", None),
    ("measures.stationary", "measures", "_stationary", None),
    ("measures.chain_integral", "measures", "_LiftChain.integral", None),
    ("gluing.check_gluing", "gluing", "check_gluing", None),
    ("gluing.glue_words", "gluing", "glue_words", None),
    ("construct.check_structure_conditions", "construct", "check_structure_conditions", None),
    ("construct.construct_intermediate", "construct", "construct_intermediate", None),
    ("construct.partition_floor", "construct", "_measure_partition_floor", None),
    ("construct.class_log_weight_sum", "construct", "class_log_weight_sum", None),
    ("construct.select_words", "construct", "select_words",
     lambda a, kw, r: {"construct.E_size": _rows(r[0])}),
    ("construct.log_pressure", "construct", "GluedSubshift.log_pressure", None),
    ("construct.finite_pressure_report", "construct", "GluedSubshift.finite_pressure_report", None),
    ("construct.word_theta", "construct", "GluedSubshift.word_theta", None),
    ("construct.log_theta", "construct", "GluedSubshift.log_theta", None),
    ("construct.verify_counting_bound", "construct", "verify_counting_bound",
     lambda a, kw, r: {"construct.counting_classes": int(r.classes_checked)}),
    ("construct.density_experiment", "construct", "density_experiment", _density_counts),
]


class Tracer:
    """In-memory span and count store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent span or -1]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []  # "span (module.attribute)" of hooks with no target
        self.count_errors: list[str] = []  # "span: error" of counts that could not be computed
        self._stack: list[int] = []

    def wrap(self, name, fn, counts):
        idx = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.spans)
            self.spans.append([idx, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[span][2] = time.perf_counter_ns()
            if counts is not None:
                self._count(name, counts, args, kwargs, result)
            return result

        return traced

    def _count(self, name, counts, args, kwargs, result):
        try:
            values = counts(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            self.count_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return
        for key, value in values.items():
            full = key if "." in key else f"{name}.{key}"
            self.counts[full] = self.counts.get(full, 0) + int(value)

    def install(self, package):
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ] + [package]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for name, mod_name, attr, counts in HOOKS:
            owner = by_name.get(mod_name)
            cls_name, _, meth = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            target = getattr(owner, meth, None) if owner is not None else None
            if target is None:
                self.missing.append(f"{name} ({mod_name}.{attr})")
                continue
            wrapped = self.wrap(name, target, counts)
            if cls_name:
                setattr(owner, meth, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, key, wrapped)

    def dump(self, path, argv, exit_code):
        with open(path, "w") as fh:
            json.dump(
                {
                    "argv": argv,
                    "exit_code": exit_code,
                    "names": self.names,
                    "spans": self.spans,
                    "counts": self.counts,
                    "missing": self.missing,
                    "count_errors": self.count_errors,
                },
                fh,
            )


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import shiftpress
    import shiftpress.cli

    tracer = Tracer()
    tracer.install(shiftpress)
    code = shiftpress.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_file, argv, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
