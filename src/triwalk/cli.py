"""Command-line front end.

Runs walk simulations, dispersion scans, peak-velocity analyses, parameter
sweeps, and localization reports, writing CSV or JSON data files suitable
for plotting.  Exit codes: 0 success, 2 configuration error (also a grid or
walk too large for memory), 3 numeric or invariant failure, 4 I/O failure.
Failures emit a one-line JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .coins import (
    Coin,
    CoinFamily,
    InvariantViolation,
    _csv_text,
    _to_json,
    _write_text,
    coin_c1,
    coin_c2,
    grover_coin,
    permutation_coin,
)
from .localization import localization_report
from .spectral import (
    DEFAULT_GRID,
    BranchTrackingError,
    dispersion_numeric,
    linear_approx_deviation,
    peak_velocities_numeric,
    peak_velocity_c1,
    peak_velocity_c2,
)
from .walk import evolve, initial_state, peak_positions, probability_distribution

__all__ = ["main"]

MAX_STEPS = 100_000

# Normalized version of the reference state (1, -1, 1)/sqrt(3).
_DEFAULT_STATE = (
    "0.57735026918962576,0,-0.57735026918962576,0,0.57735026918962576,0"
)


class ConfigError(Exception):
    """Invalid command-line configuration."""


def parse_coin(spec: str) -> Coin:
    """Resolve a coin spec: grover | c1:<phi> | c2:<rho> | pi | matrix:<path>."""
    spec = spec.strip()
    if spec == "grover":
        return grover_coin()
    if spec == "pi":
        return permutation_coin()
    if spec.startswith("c1:"):
        return coin_c1(_parse_float(spec[3:], "c1 parameter"))
    if spec.startswith("c2:"):
        return coin_c2(_parse_float(spec[3:], "c2 parameter"))
    if spec.startswith("matrix:"):
        path = spec[len("matrix:"):]
        with open(path, "r", encoding="utf-8") as fh:
            return Coin.from_json(fh.read())
    raise ConfigError(
        f"unrecognized coin spec {spec!r}; expected grover, c1:<phi>, "
        "c2:<rho>, pi, or matrix:<path>"
    )


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{what} must be a number, got {text!r}") from None


def parse_state(spec: str) -> np.ndarray:
    """Parse six comma-separated reals (re, im per component), normalizing.

    Rejects non-finite components.  Prints a warning when the supplied
    vector was off unit norm by more than 1e-9.
    """
    parts = spec.split(",")
    if len(parts) != 6:
        raise ConfigError(
            "state must be six comma-separated numbers (re,im per component)"
        )
    vals = [_parse_float(p, "state component") for p in parts]
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"state components must be finite, got {spec!r}")
    psi = np.array([complex(vals[0], vals[1]),
                    complex(vals[2], vals[3]),
                    complex(vals[4], vals[5])])
    with np.errstate(over="ignore"):
        squares = float(np.sum(np.abs(psi) ** 2))
    # Rescale only squares that overflow or underflow; x / 1.0 is exact.
    in_range = sys.float_info.min <= squares < math.inf
    scale = 1.0 if in_range else max(map(abs, vals))
    if scale == 0.0:
        raise ConfigError("state vector must be nonzero")
    psi = psi / scale
    norm = math.sqrt(float(np.sum(np.abs(psi) ** 2)))
    shown = norm * scale
    if abs(shown - 1.0) > 1e-9:
        if shown == math.inf:  # the true norm lies beyond the double range
            from decimal import Decimal  # here: rarely needed, slow to import
            shown = Decimal(norm) * Decimal(scale)
        print(f"warning: state norm was {shown:.12g}; normalizing",
              file=sys.stderr)
    return psi / norm


def _analytic_velocity(coin: Coin) -> float | None:
    if coin.family is CoinFamily.GROVER:
        return 1.0 / math.sqrt(3.0)
    if coin.family is CoinFamily.PERMUTATION_PI:
        return 0.0
    if coin.family is CoinFamily.C1 and coin.parameter <= math.pi / 2.0:
        return peak_velocity_c1(coin.parameter)
    if coin.family is CoinFamily.C2:
        return peak_velocity_c2(coin.parameter)
    return None


def cmd_simulate(args: argparse.Namespace) -> int:
    coin = parse_coin(args.coin)
    psi = parse_state(args.state)
    if args.steps < 0:
        raise ConfigError("--steps must be non-negative")
    if args.steps > MAX_STEPS:
        raise ConfigError(f"--steps is capped at {MAX_STEPS}")
    state = evolve(initial_state(psi), coin, args.steps)
    dist = probability_distribution(state)
    _write_output(args, dist.to_csv, dist.to_json)
    left, right = peak_positions(dist)
    print(f"side peaks: left={left} right={right}")
    v = _analytic_velocity(coin)
    label = "analytic"
    if v is None:
        v = peak_velocities_numeric(coin, args.grid).v_right
        label = "numeric"
    print(f"predicted t*v_R = {args.steps * v:.3f} "
          f"(v_R = {v:.6f}, {label})")
    return 0


def cmd_dispersion(args: argparse.Namespace) -> int:
    coin = parse_coin(args.coin)
    table = dispersion_numeric(coin, args.grid)
    _write_output(args, table.to_csv, table.to_json)
    return 0


def cmd_velocity(args: argparse.Namespace) -> int:
    coin = parse_coin(args.coin)
    result = peak_velocities_numeric(coin, args.grid)
    _write_output(args, lambda path: _write_text(path, _csv_text(
        "v_left,v_right,k0,method", [result.v_left], [result.v_right],
        [result.k0], [result.method.value])), result.to_json)
    print(f"v_left = {result.v_left:.9f}, v_right = {result.v_right:.9f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ConfigError("--points must be at least 2")
    if args.family == "c1":
        make_coin, top = coin_c1, math.pi / 2.0
    else:
        make_coin, top = coin_c2, 1.0

    def run_point(p: float) -> tuple[float, float, float, float]:
        coin = make_coin(p)
        v_num = peak_velocities_numeric(coin, args.grid).v_right
        v_ana = _analytic_velocity(coin)
        dev = linear_approx_deviation(p) if args.family == "c1" else v_ana - p
        return (p, v_ana, v_num, dev)

    rows = [run_point(p) for p in np.linspace(0.0, top, args.points)]

    keys = ("parameter", "v_analytic", "v_numeric", "deviation_from_linear")
    _write_output(args, lambda path: _write_text(
        path, _csv_text(",".join(keys), *zip(*rows))),
        lambda: _to_json([dict(zip(keys, row)) for row in rows]))
    return 0


def cmd_localize(args: argparse.Namespace) -> int:
    coin = parse_coin(args.coin)
    psi = parse_state(args.state)
    if args.steps > MAX_STEPS:
        raise ConfigError(f"--steps is capped at {MAX_STEPS}")
    report = localization_report(coin, psi, args.steps, n_samples=args.grid)
    _write_output(args, report.series_to_csv, report.to_json)
    print(f"trapping estimate = {report.trapping_estimate:.6f} "
          f"(converged={report.converged}, flat_band={report.flat_band})")
    return 0


def _write_output(args: argparse.Namespace, write_csv, to_json) -> None:
    """Write ``--out`` in ``--format``: ``write_csv(path)`` or ``to_json()``."""
    if args.format == "csv":
        write_csv(args.out)
    else:
        _write_text(args.out, to_json())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triwalk",
        description="Three-state quantum walks on the line: simulation, "
                    "band structure, and localization analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, coin: bool = True,
                   state: bool = False) -> None:
        if coin:
            p.add_argument("--coin", default="grover",
                           help="grover | c1:<phi> | c2:<rho> | pi | "
                                "matrix:<path>")
        if state:
            p.add_argument("--state", default=_DEFAULT_STATE,
                           help="initial coin state, six reals re,im per "
                                "component (default (1,-1,1)/sqrt(3))")
        p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                       help="momentum grid size (default %(default)s)")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")

    p_sim = sub.add_parser("simulate", help="evolve the walk, write p(m, T)")
    add_common(p_sim, state=True)
    p_sim.add_argument("--steps", type=int, default=50,
                       help="number of walk steps (default 50)")
    p_sim.set_defaults(func=cmd_simulate)

    p_disp = sub.add_parser("dispersion",
                            help="write tracked dispersion branches and "
                                 "group velocities")
    add_common(p_disp)
    p_disp.set_defaults(func=cmd_dispersion)

    p_vel = sub.add_parser("velocity", help="numeric peak velocities")
    add_common(p_vel)
    p_vel.set_defaults(func=cmd_velocity, format="json")

    p_sweep = sub.add_parser("sweep",
                             help="peak velocity across a coin family")
    p_sweep.add_argument("--family", choices=("c1", "c2"), required=True)
    p_sweep.add_argument("--points", type=int, default=50,
                         help="number of parameter samples (default 50)")
    add_common(p_sweep, coin=False)
    p_sweep.set_defaults(func=cmd_sweep)

    p_loc = sub.add_parser("localize", help="origin-probability trapping report")
    add_common(p_loc, state=True)
    p_loc.add_argument("--steps", type=int, default=1000,
                       help="walk length T (default 1000)")
    p_loc.set_defaults(func=cmd_localize, format="json")
    return parser


def _fail(code: int, exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.grid < 16:
            raise ConfigError("--grid must be at least 16")
        return args.func(args)
    except (ConfigError, ValueError, MemoryError) as exc:
        return _fail(2, exc)
    except (InvariantViolation, BranchTrackingError) as exc:
        return _fail(3, exc)
    except OSError as exc:
        return _fail(4, exc)


if __name__ == "__main__":
    sys.exit(main())
