"""Output checks for the benchmark's CLI invocations.

References are computed here with numpy from the input JSON, never through
shiftpress: the pressure is the log spectral radius of the lift matrix (by
``numpy.linalg.eigvals``) and the pressure floor is the maximum mean cycle
of the lifted potential (Karp's recurrence from every vertex at once).
Each check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from gen_inputs import admissible_words

TOL = 1e-9
# E_size of the one construction verify-bounds runs (full2, zero potential,
# alpha 0.12, eta0 0.1), as the unmodified package builds it
E_SIZE = 7


def transitions(system: dict) -> np.ndarray:
    A = system["alphabet"]
    if system.get("full"):
        return np.ones((A, A), dtype=np.int64)
    return np.array(system["transitions"], dtype=np.int64)


def lift_graph(system: dict, potential: dict):
    """(state count, src, dst, potential value) of the lift whose states are
    the admissible words of length max(memory - 1, 1)."""
    T = transitions(system)
    m = potential["memory"]
    c = max(m - 1, 1)
    table = {tuple(int(ch) for ch in key): v for key, v in potential["table"].items()}
    states = [tuple(w) for w in admissible_words(T, c).tolist()]
    index = {w: i for i, w in enumerate(states)}
    src, dst, wgt = [], [], []
    for i, w in enumerate(states):
        for b in np.nonzero(T[w[-1]])[0].tolist():
            ext = w + (b,)
            src.append(i)
            dst.append(index[ext[-c:]])
            wgt.append(table[ext[-m:]])
    return len(states), np.array(src), np.array(dst), np.array(wgt, dtype=float)


def ref_pressure(system: dict, potential: dict) -> float:
    V, src, dst, wgt = lift_graph(system, potential)
    shift = wgt.max()
    L = np.zeros((V, V))
    L[src, dst] = np.exp(wgt - shift)
    return math.log(float(np.abs(np.linalg.eigvals(L)).max())) + shift


def ref_floor(system: dict, potential: dict) -> float:
    """Maximum mean cycle weight: Karp's formula with D_0 = 0 at every vertex."""
    V, src, dst, wgt = lift_graph(system, potential)
    D = np.full((V + 1, V), -np.inf)
    D[0] = 0.0
    for k in range(1, V + 1):
        np.maximum.at(D[k], dst, D[k - 1][src] + wgt)
    with np.errstate(invalid="ignore"):
        ratios = (D[V] - D[:V]) / (V - np.arange(V))[:, None]
    ratios = np.where(np.isfinite(D[:V]), ratios, np.inf)
    worst = ratios.min(axis=0)
    return float(worst[np.isfinite(D[V])].max())


def references(system: dict, potential: dict) -> dict:
    return {"pressure": ref_pressure(system, potential), "floor": ref_floor(system, potential)}


def strip_wallclock(text: str) -> str:
    """The artifact without the wall-clock line, the only field allowed to vary."""
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("# wallclock:") and '"wallclock":' not in line
    )


def parse_csv(text: str):
    """(stats from the '# key: value' lines, data rows as dicts)."""
    stats, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            stats[key] = value
        else:
            body.append(line)
    return stats, list(csv.DictReader(io.StringIO("\n".join(body))))


def _close(name, got, want, failures, tol=TOL):
    if not abs(got - want) <= tol:
        failures.append(f"{name} = {got!r}, reference {want!r}")


def check_pressure(text, ref, **_):
    out, failures = json.loads(text), []
    oracle, enum = out["oracle"]["value"], out["enumeration"]["value"]
    _close("oracle pressure", oracle, ref["pressure"], failures)
    if not enum >= oracle - TOL:
        failures.append(f"enumeration {enum!r} below oracle {oracle!r}")
    return failures, []


def check_pstar(text, ref, **_):
    out, failures = json.loads(text), []
    _close("pstar", out["value"], ref["floor"], failures)
    low = [x for x in out["finite_means"] if not out["value"] <= x + TOL]
    if low:
        failures.append(f"finite means below pstar {out['value']!r}: {low}")
    return failures, []


def check_check(text, ref, **_):
    return ([] if json.loads(text)["all_pass"] else ["check: not all_pass"]), []


def check_spectrum(text, ref, **_):
    stats, rows = parse_csv(text)
    failures = []
    ceiling = float(stats["ceiling"])
    _close("spectrum floor", float(stats["floor"]), ref["floor"], failures)
    _close("spectrum ceiling", ceiling, ref["pressure"], failures)
    if stats["partial"] != "false":
        failures.append("spectrum is partial")
    pressures = [float(r["pressure"]) for r in rows]
    if not pressures:
        failures.append("spectrum has no entries")
    else:
        above = [p for p in pressures if p > ceiling + TOL]
        if above:
            failures.append(f"{len(above)} pressures above the ceiling {ceiling!r}")
        _close("max spectrum pressure", max(pressures), ceiling, failures)
    return failures, []


def check_density(text, ref, grid, eta0, **_):
    """Invocation failures, and one verdict per alpha row (True = row failed)."""
    stats, rows = parse_csv(text)
    failures = []
    lo, hi = ref["floor"] + eta0, ref["pressure"] - eta0
    alphas = [0.5 * (lo + hi)] if grid == 1 else np.linspace(lo, hi, grid).tolist()
    if len(rows) != len(alphas):
        failures.append(f"density has {len(rows)} rows, grid {len(alphas)}")
    for row, a in zip(rows, alphas):
        _close("alpha", float(row["alpha"]), a, failures)
    row_failed = []
    for row in rows:
        ok = row["certified"] == "true" and abs(float(row["pressure"]) - float(row["alpha"])) < eta0
        row_failed.append(not ok)
    return failures, row_failed


def check_verify_bounds(text, ref, **_):
    out, failures = json.loads(text), []
    if not out["certified"]:
        failures.append("verify-bounds: construction not certified")
    bounds = sorted((int(n), res) for n, res in out["counting_bounds"].items())
    if not bounds:
        return failures + ["verify-bounds: no counting bounds"], []
    for n, res in bounds:
        if not res["ok"]:
            failures.append(f"counting bound fails at n={n}")
        if res["classes"] != E_SIZE**n:
            failures.append(f"classes at n={n} is {res['classes']}, not {E_SIZE}^{n}")
    return failures, []


CHECKS = {
    "pressure": check_pressure,
    "pstar": check_pstar,
    "check": check_check,
    "spectrum": check_spectrum,
    "density": check_density,
    "verify-bounds": check_verify_bounds,
}
