"""Layered benchmark of the shiftpress command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

``--workload all`` runs the three workloads in turn. Each workload is a
closed loop with one client: a pass runs the workload's CLI invocations in
order, each a fresh ``python -m shiftpress.cli`` subprocess started when the
previous one has ended, and passes repeat until ``--seconds`` have elapsed
(at least one pass). Inputs are written fresh for every run from ``--seed``
by ``gen_inputs.py``; every output is checked by ``checks.py``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: wall seconds of one pass, import included (median of passes);
* ``setup_s``: wall seconds of a subprocess that imports ``shiftpress.cli``
  and loads the workload's input files, then exits (median of samples taken
  after every invocation, so they span the same host conditions as the
  passes);
* ``peak_rss_mb``: the largest ``ru_maxrss`` of a pass's subprocesses
  (median of passes).

``--trace 1`` alternates untraced passes with passes through
``trace_runner.py`` and reports per-layer spans and counts (medians of the
traced passes) plus ``trace_overhead_s``, traced minus untraced ``wall_s``.

An operation is one invocation plus one per density row; it fails on a
nonzero exit, a failed output check, or an artifact that differs between
passes in more than its wall-clock line. Results with provenance go to
``.perfbench/results/``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen_inputs
import trace_runner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PER_INVOCATION = 3


@dataclass(frozen=True)
class Invocation:
    command: str
    system: str
    potential: str
    flags: tuple = ()

    def argv(self, inputs: dict) -> list:
        args = [self.command, "--system", str(inputs[self.system]),
                "--potential", str(inputs[self.potential])]
        for key, value in self.flags:
            args += [f"--{key}", str(value)]
        return args

    @property
    def label(self) -> str:
        return f"{self.command} {self.system}"

    @property
    def rows(self) -> int:
        """Density rows the invocation must produce (each is an operation)."""
        return dict(self.flags).get("grid", 0) if self.command == "density" else 0


WORKLOADS = {
    "sweep": (
        Invocation("density", "golden", "golden_phi", (("grid", 3), ("eta0", 0.1))),
        Invocation("density", "full2", "zero", (("grid", 8), ("eta0", 0.1))),
    ),
    "spectrum": (
        Invocation("spectrum", "full2", "zero", (("cycle-cap", 10), ("grid", 50))),
        Invocation("spectrum", "lift", "lift_phi", (("cycle-cap", 3), ("grid", 4))),
    ),
    "bounds": (
        Invocation("pressure", "lift", "lift_phi"),
        Invocation("pstar", "lift", "lift_phi"),
        Invocation("check", "m2", "m2_phi"),
        Invocation("verify-bounds", "full2", "zero", (("alpha", 0.12), ("eta0", 0.1))),
    ),
}
WHY = {
    "sweep": "density sweeps on golden (gappy, tau=1) and full2 (free): the construct layer; measures idle",
    "spectrum": "spectrum on full2 (~11k tiny chains) and a 400-state lift (~94 large chains): "
                "the measures layer; construct idle",
    "bounds": "pressure and pstar on a 400-state lift, check on m2, verify-bounds on full2: "
              "thermo, segments, Karp and counting bound",
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics: every traced span, the stage entry points' inclusive
# time, and the counts, each with the span whose hook produces it
SPANS = [name for name, *_ in trace_runner.HOOKS]
STAGES = [
    "construct.construct_intermediate", "construct.density_experiment",
    "measures.spectrum_sample", "construct.check_structure_conditions",
    "construct.verify_counting_bound", "thermo.pressure_enumerate",
    "thermo.pressure_oracle", "thermo.pressure_floor",
]
COUNTS = {
    "core.word_matrix.rows": "core.word_matrix",
    "core.word_matrix.bytes_computed": "core.word_matrix",
    "potentials.birkhoff_batch.rows": "potentials.birkhoff_batch",
    "segments.batch.rows": "segments.batch",
    "segments.batch.predicate_rows": "segments.batch",
    "kernels.birkhoff.ops_computed": "kernels.birkhoff",
    "kernels.karp.ops_computed": "kernels.karp",
    "thermo.perron_log.iterations": "thermo.perron_log",
    "measures.entries": "measures.spectrum_sample",
    "construct.E_size": "construct.select_words",
    "construct.counting_classes": "construct.verify_counting_bound",
    "construct.alpha_rows": "construct.density_experiment",
    "construct.certified_rows": "construct.density_experiment",
}
PER_LAYER_UNITS = {
    **{f"{s}.calls": "count" for s in SPANS},
    **{f"{s}.self_s": "s" for s in SPANS},
    **{f"{s}.total_s": "s" for s in STAGES},
    **{c: "count" for c in COUNTS},
    "trace_overhead_s": "s",
}

SETUP_CODE = """\
import sys
import shiftpress.cli
from shiftpress.core import load_system
from shiftpress.potentials import load_potential
for system, potential in zip(sys.argv[1::2], sys.argv[2::2]):
    load_potential(load_system(system), potential)
print(shiftpress.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here (no package, broken import)."""


def spawn(args: list, out: Path, err: Path, env: dict):
    """Run ``python args...`` with stdout/stderr to files.

    Returns (wall seconds, exit code, ru_maxrss in KiB) of that child alone.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss


@dataclass
class Pass:
    peak_kib: int = 0
    attempted: int = 0
    failed: int = 0
    invocation_s: list = field(default_factory=list)
    messages: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.invocation_s)


class Workload:
    """One workload in one run directory: inputs, references, passes."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.invocations = WORKLOADS[name]
        self.dir = run_dir
        self.inputs = gen_inputs.write_inputs(seed, run_dir / "inputs")
        data = {k: json.loads(p.read_text()) for k, p in self.inputs.items()}
        self.pairs = list(dict.fromkeys((i.system, i.potential) for i in self.invocations))
        self.refs = {pair: checks.references(data[pair[0]], data[pair[1]]) for pair in self.pairs}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.artifacts: dict = {}
        self.passes = 0
        self.setup_s: list = []

    def setup_once(self) -> float:
        args = ["-c", SETUP_CODE]
        for system, potential in self.pairs:
            args += [str(self.inputs[system]), str(self.inputs[potential])]
        out, err = self.dir / "setup.out", self.dir / "setup.err"
        wall, code, _ = spawn(args, out, err, self.env)
        if code != 0:
            raise BenchError(f"set-up failed (exit {code}): {err.read_text()[-2000:]}")
        where = Path(out.read_text().strip()).resolve()
        if SRC.resolve() not in where.parents:
            raise BenchError(f"imported shiftpress from {where}, not from {SRC}")
        return wall

    def run_pass(self, traced: bool, sample_setup: bool = False) -> Pass:
        self.passes += 1
        res = Pass()
        for k, inv in enumerate(self.invocations):
            stem = self.dir / f"p{self.passes}-{k}"
            spans = stem.with_suffix(".spans.json")
            if traced:
                args = [str(ROOT / "perfbench" / "trace_runner.py"), str(spans)]
            else:
                args = ["-m", "shiftpress.cli"]
            wall, code, kib = spawn(args + inv.argv(self.inputs), stem.with_suffix(".out"),
                                    stem.with_suffix(".err"), self.env)
            res.invocation_s.append(wall)
            res.peak_kib = max(res.peak_kib, kib)
            res.attempted += 1 + inv.rows
            failures, rows_failed = self.check(inv, k, code, stem)
            bad_rows = sum(rows_failed) + max(0, inv.rows - len(rows_failed))
            if failures:
                res.failed += 1 + inv.rows
                res.messages += [f"{inv.label}: {m}" for m in failures]
            elif bad_rows:
                res.failed += bad_rows
                res.messages.append(f"{inv.label}: {bad_rows} density rows failed")
            if traced and spans.exists():
                res.spans.append(json.loads(spans.read_text()))
            if sample_setup:
                self.setup_s += [self.setup_once() for _ in range(SETUP_PER_INVOCATION)]
        return res

    def check(self, inv: Invocation, k: int, code: int, stem: Path):
        if code != 0:
            tail = stem.with_suffix(".err").read_text()[-500:]
            return [f"exit code {code}: {tail}"], []
        text = stem.with_suffix(".out").read_text()
        kwargs = {key.replace("-", "_"): v for key, v in inv.flags}
        try:
            failures, rows_failed = checks.CHECKS[inv.command](
                text, self.refs[(inv.system, inv.potential)], **kwargs)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"], []
        body = checks.strip_wallclock(text)
        if self.artifacts.setdefault(k, body) != body:
            failures = failures + ["artifact differs from the first pass"]
        return failures, rows_failed


def layer_metrics(docs: list) -> dict:
    """Per-layer metrics of one traced pass from its span files."""
    calls, self_ns, total_ns, counts = Counter(), Counter(), Counter(), Counter()
    for doc in docs:
        names, spans = doc["names"], doc["spans"]
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for k, (idx, start, end, parent) in enumerate(spans):
            name = names[idx]
            calls[name] += 1
            self_ns[name] += end - start - child_ns[k]
            while parent >= 0 and spans[parent][0] != idx:
                parent = spans[parent][3]
            if parent < 0:  # outermost span of its name: inclusive time counts once
                total_ns[name] += end - start
        counts.update(doc["counts"])
    out = {}
    for s in SPANS:
        out[f"{s}.calls"] = calls[s]
        out[f"{s}.self_s"] = self_ns[s] / 1e9
    for s in STAGES:
        out[f"{s}.total_s"] = total_ns[s] / 1e9
    for c in COUNTS:
        out[c] = counts[c]
    return out


def trace_gaps(docs: list, key: str) -> list:
    """Sorted distinct entries of a span file list ("missing" or "count_errors")."""
    return sorted({m for doc in docs for m in doc[key]})


def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():  # never report the sha of an enclosing repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "git_sha": sha or "unknown (not a git checkout)",
        "seed": seed,
        "loop": "closed, one client, one CLI subprocess at a time",
        "computed_counts": "*.rows, *.bytes_computed and *.ops_computed are computed "
                           "from argument and result array shapes, not measured",
    }


def measure(name: str, seed: int, seconds: float, trace: bool, prov: dict) -> dict:
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=WORK))
    try:
        wl = Workload(name, seed, run_dir)
        wl.setup_once()  # warm-up: compiles bytecode, proves the import path
        start = time.perf_counter()
        samples: dict = {}
        untraced, traced = [], []
        while not untraced or time.perf_counter() - start < seconds:
            untraced.append(wl.run_pass(traced=False, sample_setup=not trace))
            if trace:
                traced.append(wl.run_pass(traced=True))
        passes = untraced + traced
        result = {
            "workload": name,
            "why": WHY[name],
            "invocations": [" ".join(i.argv({k: f"<{k}>" for k in wl.inputs})) for i in wl.invocations],
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "messages": [m for p in passes for m in p.messages],
            "provenance": prov,
            "references": {f"{s}/{p}": r for (s, p), r in wl.refs.items()},
        }
        samples["wall_s"] = [p.wall_s for p in untraced]
        samples["invocation_s"] = {
            i.label: [p.invocation_s[k] for p in untraced] for k, i in enumerate(wl.invocations)
        }
        metrics, units, counted = {}, {}, {}
        if trace:
            per_pass = [layer_metrics(p.spans) for p in traced]
            docs = [d for p in traced for d in p.spans]
            result["missing_hooks"] = trace_gaps(docs, "missing")
            result["count_errors"] = trace_gaps(docs, "count_errors")
            # a metric whose hook or count is gone is reported by name, not as 0
            gone = {m.split(" ", 1)[0] for m in result["missing_hooks"]}
            gone_counts = gone | {m.split(":", 1)[0] for m in result["count_errors"]}
            for key in per_pass[0]:
                if key in COUNTS and COUNTS[key] in gone_counts:
                    continue
                if key not in COUNTS and key.rsplit(".", 1)[0] in gone:
                    continue
                metrics[key] = statistics.median(m[key] for m in per_pass)
                units[key], counted[key] = PER_LAYER_UNITS[key], f"{len(traced)} traced passes"
            samples["traced_wall_s"] = [p.wall_s for p in traced]
            metrics["trace_overhead_s"] = (statistics.median(samples["traced_wall_s"])
                                           - statistics.median(samples["wall_s"]))
            units["trace_overhead_s"] = PER_LAYER_UNITS["trace_overhead_s"]
            counted["trace_overhead_s"] = f"{len(traced)} traced, {len(untraced)} untraced passes"
        else:
            samples["setup_s"] = wl.setup_s
            samples["peak_rss_mb"] = [p.peak_kib / 1024 for p in untraced]
            for key, unit in END_TO_END.items():
                metrics[key] = statistics.median(samples[key])
                units[key], counted[key] = unit, f"{len(samples[key])} samples"
        result["samples"] = samples
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        result["median_of"] = counted
        results_dir = WORK / "results"
        results_dir.mkdir(exist_ok=True)
        path = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        result["path"] = path
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(result: dict):
    print(f"workload {result['workload']} (seed {result['provenance']['seed']}): {result['why']}")
    for key, m in result["metrics"].items():
        print(f"  {key:48s} {m['value']:14.6f} {m['unit']:6s} median of {result['median_of'][key]}")
    att, fail = result["attempted"], result["failed"]
    print(f"  {'failed_frac':48s} {fail / att:14.6f} {'1':6s} {fail}/{att} operations")
    for msg in result["messages"][:20]:
        print(f"  FAILED {msg}")
    for hook in result.get("missing_hooks", []):
        print(f"  MISSING HOOK {hook}")
    for err in result.get("count_errors", []):
        print(f"  COUNT ERROR {err}")
    print(f"  results: {result['path'].relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()
    if not (SRC / "shiftpress" / "cli.py").is_file():
        print(f"no shiftpress sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    prov = provenance(ns.seed)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    results = []
    for name in names:
        try:
            results.append(measure(name, ns.seed, ns.seconds, bool(ns.trace), prov))
        except BenchError as exc:
            print(f"benchmark cannot run: {exc}", file=sys.stderr)
            return 1
        report(results[-1])
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
