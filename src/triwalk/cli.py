"""Command-line front end.

Runs walk simulations, dispersion scans, peak-velocity analyses, parameter
sweeps, and localization reports, writing CSV or JSON data files suitable
for plotting.  ``main`` is the one pipeline: it parses ``--coin`` and
``--state`` and checks the ``--steps`` cap once, runs the command, which
returns its result record and summary lines, and only then writes the
record's ``to_csv()`` or ``to_json()`` through ``_write_text`` and prints
the lines.
``main`` is the in-process API: it returns the exit code.  The ``triwalk``
process, as a script or as ``python -m triwalk.cli``, runs ``_process_main``
instead, which flushes stdout and stderr after ``main`` and ends with
``os._exit``: the interpreter's teardown of numpy and the package would
only free memory that the process is about to give back.
Exit codes: 0 success, 2 configuration error (also a grid or walk too large
for memory), 3 numeric or invariant failure, 4 I/O failure.  Failures emit
a one-line JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import types

import numpy as np

from .coins import (
    Coin,
    CoinFamily,
    InvariantViolation,
    _csv_text,
    _to_json,
    coin_c1,
    coin_c2,
    grover_coin,
    permutation_coin,
)
from .localization import localization_report
from .spectral import (
    DEFAULT_GRID,
    BranchTrackingError,
    _peak_velocities,
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

# The one-parameter families: constructor and the top of the sweep range.
_FAMILIES = {"c1": (coin_c1, math.pi / 2.0), "c2": (coin_c2, 1.0)}


class ConfigError(Exception):
    """Invalid command-line configuration."""


def parse_coin(spec: str) -> Coin:
    """Resolve a coin spec: grover | c1:<phi> | c2:<rho> | pi | matrix:<path>."""
    spec = spec.strip()
    if spec == "grover":
        return grover_coin()
    if spec == "pi":
        return permutation_coin()
    name, colon, arg = spec.partition(":")
    if colon and name in _FAMILIES:
        return _FAMILIES[name][0](_parse_float(arg, f"{name} parameter"))
    if colon and name == "matrix":
        with open(arg, "r", encoding="utf-8") as fh:
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
    # Divide the float view: numpy's complex division multiplies by
    # 1 / scale, which overflows for a subnormal scale.
    psi = (psi.view(float) / scale).view(complex)
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
    if coin.family is CoinFamily.C1:
        # c1(pi - phi) is the complex conjugate of c1(phi), with the same
        # peak velocities.
        return peak_velocity_c1(min(coin.parameter, math.pi - coin.parameter))
    if coin.family is CoinFamily.C2:
        return peak_velocity_c2(coin.parameter)
    return None


def cmd_simulate(args: argparse.Namespace) -> tuple:
    if args.steps < 0:
        raise ConfigError("--steps must be non-negative")
    dist = probability_distribution(
        evolve(initial_state(args.state), args.coin, args.steps))
    v = _analytic_velocity(args.coin)
    label = "analytic"
    if v is None:
        v = peak_velocities_numeric(args.coin, args.grid).v_right
        label = "numeric"
    left, right = peak_positions(dist)
    return dist, (f"side peaks: left={left} right={right}",
                  f"predicted t*v_R = {args.steps * v:.3f} "
                  f"(v_R = {v:.6f}, {label})")


def cmd_dispersion(args: argparse.Namespace) -> tuple:
    return dispersion_numeric(args.coin, args.grid), ()


def cmd_velocity(args: argparse.Namespace) -> tuple:
    result = peak_velocities_numeric(args.coin, args.grid)
    return result, (f"v_left = {result.v_left:.9f}, "
                    f"v_right = {result.v_right:.9f}",)


def cmd_sweep(args: argparse.Namespace) -> tuple:
    if args.points < 2:
        raise ConfigError("--points must be at least 2")
    make_coin, top = _FAMILIES[args.family]
    params = np.linspace(0.0, top, args.points)
    coins = [make_coin(p) for p in params]
    # One zoom refines v_right (the one velocity written) at every point,
    # with the bits of one call per point.
    results = _peak_velocities(np.array([c.matrix for c in coins]), args.grid,
                               left=False)
    rows = []
    for p, coin, (_, v_right, _) in zip(params, coins, results):
        v_ana = _analytic_velocity(coin)
        dev = linear_approx_deviation(p) if args.family == "c1" else v_ana - p
        rows.append((p, v_ana, v_right, dev))

    keys = ("parameter", "v_analytic", "v_numeric", "deviation_from_linear")
    return types.SimpleNamespace(
        to_csv=lambda: _csv_text(",".join(keys), *zip(*rows)),
        to_json=lambda: _to_json([dict(zip(keys, row)) for row in rows])), ()


def cmd_localize(args: argparse.Namespace) -> tuple:
    report = localization_report(args.coin, args.state, args.steps,
                                 n_samples=args.grid)
    return report, (f"trapping estimate = {report.trapping_estimate:.6f} "
                    f"(converged={report.converged}, "
                    f"flat_band={report.flat_band})",)


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triwalk",
        description="Three-state quantum walks on the line: simulation, "
                    "band structure, and localization analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, fmt: str = "csv", *,
                   coin: bool = True, state: bool = False) -> None:
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
        p.add_argument("--format", choices=("csv", "json"), default=fmt,
                       help="output format (default %(default)s)")

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
    add_common(p_vel, "json")
    p_vel.set_defaults(func=cmd_velocity)

    p_sweep = sub.add_parser("sweep",
                             help="peak velocity across a coin family")
    p_sweep.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    p_sweep.add_argument("--points", type=int, default=50,
                         help="number of parameter samples (default 50)")
    add_common(p_sweep, coin=False)
    p_sweep.set_defaults(func=cmd_sweep)

    p_loc = sub.add_parser("localize", help="origin-probability trapping report")
    add_common(p_loc, "json", state=True)
    p_loc.add_argument("--steps", type=int, default=1000,
                       help="walk length T (default 1000)")
    p_loc.set_defaults(func=cmd_localize)
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
        # The commands read the parsed Coin and state in place of the text.
        if "coin" in args:
            args.coin = parse_coin(args.coin)
        if "state" in args:
            args.state = parse_state(args.state)
        if getattr(args, "steps", 0) > MAX_STEPS:
            raise ConfigError(f"--steps is capped at {MAX_STEPS}")
        record, lines = args.func(args)
        _write_text(args.out, record.to_csv() if args.format == "csv"
                    else record.to_json())
        for line in lines:
            print(line)
        return 0
    except (ConfigError, ValueError, MemoryError) as exc:
        return _fail(2, exc)
    except (InvariantViolation, BranchTrackingError) as exc:
        return _fail(3, exc)
    except OSError as exc:
        return _fail(4, exc)


def _process_main() -> None:
    """The ``triwalk`` process: ``main``, then flush and exit at once.

    argparse's ``SystemExit`` and an uncaught exception leave through the
    interpreter as usual, and so does a flush that fails, which the
    interpreter then reports as it would without this function.
    """
    status = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when Python started without it
                stream.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    _process_main()
