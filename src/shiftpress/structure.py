"""The five structure conditions behind the construction, and its knobs.

`check` evaluates the conditions without the construction itself: gluing
on the affix-bounded cores, small pressure of the complement and of the
affix classes, the Bowen bound on the core, and the expansivity
obstruction. The Bowen bound is a closed form, a sum of variations of the
finite-memory potential, so only the two class-pressure conditions, held
below the caller's pressure, enumerate words. `ConstructConfig` holds the
resolutions and budgets both use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import Resolution
from .potentials import Potential, variation
from .segments import OrbitDecomposition, affix_bounded, complement, union
from .gluing import check_gluing
from .thermo import pressure_enumerate, NEG_INF
from .errors import CertificateError, ConfigError


@dataclass
class ConstructConfig:
    """Tunable knobs of the construction driver.

    The scale eps of the structure conditions has no knob: gluing here is
    exact, so no condition depends on it, and it stays at level 1."""

    level_gamma: int = 5
    level_delta: int = 7
    n_cap: int = 24
    budget: int = 6_000_000

    def __post_init__(self):
        if self.n_cap < 2:
            raise ConfigError(f"n_cap must be >= 2, got {self.n_cap}")

    def resolutions(self):
        """(gamma, delta), once their ordering holds."""
        if not (self.level_gamma >= 5 and self.level_delta >= self.level_gamma + 2):
            raise ConfigError(
                "resolution levels must satisfy gamma >= 5 and delta >= gamma + 2 "
                f"(got gamma={self.level_gamma}, delta={self.level_delta}); "
                "this is the dyadic form of the strict scale ordering 16*delta < 8*gamma < eps "
                "at eps = 1"
            )
        return Resolution(self.level_gamma), Resolution(self.level_delta)


class ConditionReport(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    margin: float
    details: dict


class StructureCheck(NamedTuple):
    conditions: list
    all_pass: bool

    def to_dict(self):
        return {
            "all_pass": self.all_pass,
            "conditions": [
                {
                    "name": c.name,
                    "status": c.status,
                    "margin": None if math.isinf(c.margin) else c.margin,
                    "details": c.details,
                }
                for c in self.conditions
            ],
        }


def _pressure_condition(name, phi, seg, delta, eps, n_cap, pressure, budget) -> ConditionReport:
    rep = pressure_enumerate(phi, seg, delta, eps, (2, n_cap), budget)
    if rep.value == NEG_INF:
        return ConditionReport(name, "pass", math.inf, {"class_pressure": None})
    margin = pressure - rep.value
    # the spread as a pressure report writes it; an unbounded one (a length of
    # the top half with no class word) lets nothing pass
    details = {"class_pressure": rep.value, "spread": rep.to_dict()["error_bound"]}
    if margin <= 0:
        # the finite-n upper proxy already reaches the full pressure: the
        # strict inequality is falsified at this resolution
        return ConditionReport(name, "fail", margin, details)
    if margin > rep.error_bound:
        return ConditionReport(name, "pass", margin, details)
    return ConditionReport(name, "inconclusive", margin, details)


def check_structure_conditions(
    phi: Potential,
    dec: OrbitDecomposition,
    pressure: float,
    config: ConstructConfig | None = None,
    n_cap: int = 10,
) -> StructureCheck:
    """Numeric evaluation of the five structural conditions behind the
    construction: gluing on the affix-bounded cores, small pressure of the
    complement and of the affix classes, the Bowen bound on the core, and
    the expansivity obstruction; both class pressures must stay below pressure."""
    config = config or ConstructConfig()
    gamma_res, _delta_res = config.resolutions()
    conditions = []

    # (1) gluing on the affix-bounded cores
    glue_ok = True
    glue_details = {}
    for cap in (0, 1, 2):
        try:
            cert = check_gluing(phi.sys, affix_bounded(dec, cap))
            glue_details[f"cap_{cap}"] = {"tau": cert.tau, "n0": cert.n0}
        except CertificateError as exc:
            glue_ok = False
            glue_details[f"cap_{cap}"] = {"error": str(exc)}
    conditions.append(
        ConditionReport("gluing_on_bounded_cores", "pass" if glue_ok else "fail",
                        math.inf if glue_ok else 0.0, glue_details)
    )

    # (2) complement class pressure at (2*gamma, 2*gamma)
    two_gamma = Resolution(gamma_res.level - 1)
    conditions.append(
        _pressure_condition(
            "complement_pressure", phi, complement(dec.base),
            two_gamma, two_gamma, n_cap, pressure, config.budget,
        )
    )

    # (3) affix class pressure at (gamma, 3*gamma); a 3*gamma ball is the
    # dyadic ball one level coarser than gamma
    three_gamma = Resolution(gamma_res.level - 1)
    conditions.append(
        _pressure_condition(
            "affix_pressure", phi, union(dec.prefix_class, dec.suffix_class),
            gamma_res, three_gamma, n_cap, pressure, config.budget,
        )
    )

    # (4) Bowen bound on the core at 3*gamma, level l: two points of an
    # (n, l)-Bowen ball agree on their first n + l - 1 symbols, so the
    # memory-m window of S_n starting at position k agrees on its first
    # n + l - 1 - k symbols. Windows agreeing on m or more symbols give equal
    # terms; the others agree on j symbols for distinct j in l..m-1 and differ
    # by at most var_j. The sum K of those var_j bounds |S_n phi(x) - S_n phi(y)|
    # for every n and on every class, and is 0 once l >= m.
    bowen = math.fsum(variation(phi, Resolution(j)) for j in range(three_gamma.level, phi.memory))
    conditions.append(ConditionReport("bowen_on_core", "pass", math.inf, {"certified": bowen}))

    # (5) expansivity obstruction: a one-sided subshift is expansive below
    # scale 1 (two points within 2^-level under every shift agree in every
    # symbol), so no point obstructs expansivity at any resolution
    conditions.append(
        ConditionReport(
            "expansivity_obstruction", "pass", math.inf, {"h_star": 0.0, "ne_empty": True},
        )
    )

    all_pass = all(c.status == "pass" for c in conditions)
    return StructureCheck(conditions=conditions, all_pass=all_pass)
