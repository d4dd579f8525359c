"""Command-line front end: config loading, subcommands, JSON/CSV reports.

Exit codes: 0 success, 2 config/parse problem, 3 computation or
infeasibility. Every artifact embeds the tool version, a hash of the
resolved configuration, and the wall-clock time; rerunning with an
identical configuration reproduces the output byte for byte except for the
wall-clock field. The hash is SHA-256 from the interpreter's built-in
`_sha256` module, so no process loads OpenSSL through `hashlib`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

try:
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed the module _sha2
    from hashlib import sha256

from . import __version__
from .core import DEFAULT_WORD_BUDGET, Resolution, load_system
from .potentials import Potential, load_potential
from .errors import ConfigError, ShiftPressError

# Each subcommand imports the modules it runs inside its cmd_* function, so a
# process loads and compiles only those; `check` never loads `construct`.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3


def _config_hash(ns: argparse.Namespace) -> str:
    """Hash of the options, with each input file named by its contents."""
    payload = {k: v for k, v in sorted(vars(ns).items()) if k not in ("out", "func")}
    for key in ("system", "potential", "decomposition"):
        if payload.get(key):
            payload[key] = sha256(Path(payload[key]).read_bytes()).hexdigest()
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return sha256(blob).hexdigest()[:16]


def _header(args) -> dict:
    return {
        "version": __version__,
        "config_hash": _config_hash(args),
        "wallclock": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None):
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


_FLOAT = "{:.12g}"  # every float a CSV prints, row or stats line


def _fmt_column(values) -> list:
    """CSV fields: empty for None, true/false for a bool, _FLOAT for a float."""
    return [
        "" if x is None else ("true" if x else "false") if x.__class__ is bool
        else _FLOAT.format(x) if isinstance(x, float) else str(x)
        for x in values
    ]


def _fmt(x) -> str:
    return _fmt_column((x,))[0]


def _emit_csv(header: dict, names, lines, out: str | None, stats: dict):
    head = [f"# {k}: {v}" for k, v in header.items()]
    head += [f"# {k}: {_fmt(v)}" for k, v in stats.items()]
    head.append(",".join(names))
    _emit("\n".join([*head, *lines]) + "\n", out)


def _load_inputs(args, need_potential=True) -> Potential:
    """The potential of the command, which carries its system."""
    sys_ = load_system(args.system)
    return load_potential(sys_, args.potential) if need_potential else Potential.zero(sys_)


def _construct_config(args):
    from .structure import ConstructConfig

    # `check` has no --n-cap: the structure conditions search no word length
    n_cap = getattr(args, "n_cap", None)
    if n_cap is None:
        n_cap = ConstructConfig.n_cap
    elif n_cap < 2:
        raise ConfigError(f"--n-cap must be >= 2, got {n_cap}")
    return ConstructConfig(
        level_gamma=args.res_gamma,
        level_delta=args.res_delta,
        n_cap=n_cap,
        budget=args.budget_words,
    )


def _load_decomposition(args):
    from .segments import trivial_decomposition, load_decomposition

    if getattr(args, "decomposition", None):
        return load_decomposition(args.decomposition)
    return trivial_decomposition()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_pressure(args) -> int:
    from .segments import all_segments
    from .thermo import pressure_enumerate, pressure_oracle

    phi = _load_inputs(args, need_potential=args.command == "pressure")
    enum = pressure_enumerate(
        phi, all_segments(), Resolution(args.res_delta_enum), None,
        (args.n_min, args.n_max), args.budget_words,
    )
    oracle = pressure_oracle(phi)
    payload = {
        "header": _header(args),
        "enumeration": enum.to_dict(),
        "oracle": oracle.to_dict(),
        "gap": abs(enum.value - oracle.value),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_pstar(args) -> int:
    from .thermo import pressure_floor, birkhoff_sup_sequence

    phi = _load_inputs(args)
    value = pressure_floor(phi)
    payload = {
        "header": _header(args),
        "value": value,
        "finite_means": birkhoff_sup_sequence(phi),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from .measures import spectrum_sample

    result = spectrum_sample(
        _load_inputs(args), cycle_cap=args.cycle_cap, grid=args.grid, budget=args.budget_words
    )
    stats = {k: getattr(result, k) for k in ("floor", "ceiling", "max_gap", "partial")}
    names = result.entries.dtype.names
    row = ",".join(["{}", "{}", _FLOAT, _FLOAT, _FLOAT])
    lines = map(row.format, *(result.entries[k].tolist() for k in names))
    _emit_csv(_header(args), names, lines, args.out, stats)
    return EXIT_OK


def cmd_check(args) -> int:
    from .structure import check_structure_conditions
    from .thermo import pressure_oracle

    phi = _load_inputs(args)
    dec = _load_decomposition(args)
    config = _construct_config(args)
    config.resolutions()  # a bad ordering is refused before the oracle runs
    if args.n_cap_check < 2:
        raise ConfigError(f"--n-cap-check must be >= 2, got {args.n_cap_check}")
    pressure = pressure_oracle(phi).value
    check = check_structure_conditions(phi, dec, pressure, config, n_cap=args.n_cap_check)
    payload = {"header": _header(args), "pressure": pressure, **check.to_dict()}
    _emit_json(payload, args.out)
    return EXIT_OK if check.all_pass else EXIT_COMPUTE


def cmd_construct(args) -> int:
    from .construct import construct_intermediate

    phi = _load_inputs(args)
    dec = _load_decomposition(args)
    if args.alpha is None or args.eta0 is None:
        raise ConfigError("construct requires --alpha and --eta0")
    result = construct_intermediate(phi, dec, args.alpha, args.eta0, _construct_config(args))
    payload = {"header": _header(args), **result.to_dict()}
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_density(args) -> int:
    from .construct import density_experiment

    phi = _load_inputs(args)
    dec = _load_decomposition(args)
    if args.eta0 is None:
        raise ConfigError("density requires --eta0")
    result = density_experiment(phi, dec, args.grid, args.eta0, _construct_config(args), margin=args.margin)
    rows = ((r.alpha, r.certified, r.pressure, r.gap, r.N, r.tau, r.e_size) for r in result.rows)
    lines = [",".join(_fmt_column(row)) for row in rows]
    for r in result.rows:
        if r.error:
            print(f"alpha={_fmt(r.alpha)}: {r.error}", file=sys.stderr)
    stats = {k: getattr(result, k) for k in ("floor", "ceiling", "tail_correction")}
    names = ["alpha", "certified", "pressure", "gap", "N", "tau", "E_size"]
    _emit_csv(_header(args), names, lines, args.out, stats)
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    from .construct import COUNTING_N, construct_intermediate, verify_counting_bound

    phi = _load_inputs(args)
    dec = _load_decomposition(args)
    if args.alpha is None or args.eta0 is None:
        raise ConfigError("verify-bounds requires --alpha and --eta0")
    try:
        ns = [int(s) for s in args.n_list.split(",") if s]
    except ValueError:
        ns = []
    if not ns or any(n not in COUNTING_N for n in ns):
        span = f"{COUNTING_N.start}..{COUNTING_N.stop - 1}"
        raise ConfigError(f"--n-list must be comma-separated integers in {span}, got {args.n_list!r}")
    result = construct_intermediate(phi, dec, args.alpha, args.eta0, _construct_config(args))
    checks = {}
    all_ok = True
    for n in ns:
        res = verify_counting_bound(result.subsystem, n)
        checks[str(n)] = {
            "ok": res.ok,
            "classes": res.classes_checked,
            "worst_count": res.worst_count,
            "bound": res.bound,
        }
        all_ok = all_ok and res.ok
    payload = {
        "header": _header(args),
        "certified": result.certified,
        "counting_bounds": checks,
    }
    _emit_json(payload, args.out)
    return EXIT_OK if all_ok else EXIT_COMPUTE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a parse error prints as one config error line
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shiftpress",
        description="Pressure computations and intermediate-pressure subsystem construction on subshifts of finite type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, potential=True):
        p.add_argument("--system", required=True, help="system definition JSON")
        if potential:
            p.add_argument("--potential", required=True, help="potential JSON")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--budget-words", type=int, default=DEFAULT_WORD_BUDGET, dest="budget_words")

    def construct_flags(p, n_cap=True, alpha=False):
        p.add_argument("--decomposition", default=None, help="decomposition JSON (default: trivial)")
        p.add_argument("--res-gamma", type=int, default=5, dest="res_gamma")
        p.add_argument("--res-delta", type=int, default=7, dest="res_delta")
        if n_cap:
            p.add_argument("--n-cap", type=int, default=None, dest="n_cap")
        if alpha:
            p.add_argument("--alpha", type=float, default=None)
            p.add_argument("--eta0", type=float, default=None)

    # entropy is pressure on the zero potential, with the same window flags
    for name, help_ in (("pressure", "finite-range estimate and eigenvalue oracle"),
                        ("entropy", "pressure of the zero potential")):
        p = sub.add_parser(name, help=help_)
        common(p, potential=name == "pressure")
        p.add_argument("--n-min", type=int, default=2, dest="n_min")
        p.add_argument("--n-max", type=int, default=20, dest="n_max")
        p.add_argument("--res-delta", type=int, default=1, dest="res_delta_enum")
        p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("pstar", help="pressure floor: max mean cycle of the potential")
    common(p)
    p.set_defaults(func=cmd_pstar)

    p = sub.add_parser("spectrum", help="sample the ergodic pressure spectrum")
    common(p)
    p.add_argument("--cycle-cap", type=int, default=8, dest="cycle_cap")
    p.add_argument("--grid", type=int, default=20)
    p.set_defaults(func=cmd_spectrum)

    # no abbreviations, so --n-cap, which `check` does not have, is not read as --n-cap-check
    p = sub.add_parser("check", help="evaluate the five structure conditions", allow_abbrev=False)
    common(p)
    construct_flags(p, n_cap=False)
    p.add_argument("--n-cap-check", type=int, default=10, dest="n_cap_check")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", help="build a subsystem with pressure near alpha")
    common(p)
    construct_flags(p, alpha=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("density", help="alpha sweep of the construction")
    common(p)
    construct_flags(p)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--eta0", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("verify-bounds", help="exhaustive counting-bound verification of a construction")
    common(p)
    construct_flags(p, alpha=True)
    p.add_argument("--n-list", default="3,4,5", dest="n_list")
    p.set_defaults(func=cmd_verify_bounds)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.budget_words < 1:
            raise ConfigError(f"--budget-words must be >= 1, got {args.budget_words}")
        for flag in ("alpha", "eta0", "margin"):
            if not math.isfinite(getattr(args, flag, None) or 0.0):
                raise ConfigError(f"--{flag} must be finite, got {getattr(args, flag)}")
        return args.func(args)
    except SystemExit:  # --help has printed the usage
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ShiftPressError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
