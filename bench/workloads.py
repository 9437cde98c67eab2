"""The benchmark's workloads: CLI invocations, their inputs and their checks.

Each workload is a closed loop of one client: the invocations run one after
another, each starting when the previous one has exited.  A pass is one run
through the list; the benchmark repeats passes for the measuring time.

Why each workload is in the benchmark (one reason each; BENCHMARK.json
carries the same reasons in one line each):

- ``long-walk``: position-space evolution at T = 4000, where ``walk.step``
  (O(T^2) in total) and ``origin_series`` do the work and ``spectral`` does
  almost none (Grover's velocity is analytic, the flat-band scan is small).
- ``family-sweep``: 56 numeric peak velocities over the c1 and c2 families,
  including the costly band-touching point rho = 1; ``spectral`` does nearly
  all the non-setup work and ``walk`` none.
- ``single-query``: one-shot commands on seeded coins, dominated by
  interpreter start and import, with large CSV/JSON outputs; the counterpart
  of ``family-sweep`` for changes that batch many coins at the expense of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

LONG_STEPS = 4000
SWEEP_POINTS = {"c1": 50, "c2": 6}
DISPERSION_GRID = 4096


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of the file it writes."""

    command: str
    args: tuple[str, ...]
    out: str
    check: Callable[[Path], ref.Check]

    @property
    def label(self) -> str:
        return " ".join((self.command, *self.args))

    def argv(self, work: Path) -> list[str]:
        return [self.command, *self.args, "--out", str(work / self.out)]


def draw_haar(seed: int) -> np.ndarray:
    """The seeded Haar coin (also used by the coin-layer probe)."""
    return ref.haar_coin(np.random.default_rng([seed, 1]))


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The workload's invocations; inputs come only from ``seed``.

    Reference values that are expensive (the trapping limit, the dense
    Hellmann-Feynman scan) are computed here, once, outside any timing.
    """
    if workload == "long-walk":
        exact = ref.trapped_probability(ref.GROVER, ref.DEFAULT_STATE)
        steps = str(LONG_STEPS)
        return [
            Op("simulate", ("--coin", "grover", "--steps", steps), "walk.csv",
               lambda p: ref.check_distribution(p, LONG_STEPS, None)),
            Op("localize", ("--coin", "grover", "--steps", steps), "loc.json",
               lambda p: ref.check_localize(p, LONG_STEPS, exact)),
        ]
    if workload == "family-sweep":
        return [
            Op("sweep", ("--family", fam, "--points", str(n)), f"sweep-{fam}.csv",
               lambda p, fam=fam, n=n: ref.check_sweep(p, fam, n))
            for fam, n in SWEEP_POINTS.items()
        ]
    if workload == "single-query":
        return _single_query(seed, work)
    raise ValueError(f"unknown workload {workload!r}")


def known_defects(workload: str) -> list[Op]:
    """Invocations that fail their check at this commit by a known defect.

    A workload holds only invocations that pass, so no timing is of a failed
    run.  These run once per run, outside the timing and outside the
    ``correct``/``failed`` count, and their errors are reported apart: a
    ``# KNOWN DEFECT`` line, and ``spectral.edge_velocity_err`` in the traced
    run.  Move an entry into its workload once its check passes.
    """
    if workload == "single-query":
        # Error 4.2e-4 against 1e-6: the finite-difference stencil of the
        # numeric velocity spans the near band touching at rho -> 1.
        return [_velocity("c2:0.999999999", 0.999999999, "vel-c2-edge.json")]
    return []


def _velocity(spec: str, v: float, out: str) -> Op:
    return Op("velocity", ("--coin", spec), out,
              lambda p: ref.check_velocity(p, -v, v))


def _single_query(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 0])
    phi = float(rng.uniform(0.05, math.pi / 2.0 - 0.05))
    rho = float(rng.uniform(0.05, 0.95))
    haar = draw_haar(seed)
    haar_path = work / "haar.json"
    haar_path.write_text(ref.coin_json(haar), encoding="utf-8")
    v_min, v_max = ref.hf_velocity_range(haar)
    c1 = f"c1:{phi!r}"
    grid = str(DISPERSION_GRID)
    c1_matrix = ref.c1_matrix(phi)
    return [
        _velocity(c1, ref.peak_velocity("c1", phi), "vel-c1.json"),
        _velocity(f"c2:{rho!r}", ref.peak_velocity("c2", rho), "vel-c2.json"),
        Op("velocity", ("--coin", f"matrix:{haar_path}"), "vel-haar.json",
           lambda p: ref.check_velocity(p, v_min, v_max)),
        _velocity("c1:1.5707963267948966", 0.0, "vel-c1-edge.json"),
        Op("dispersion", ("--coin", c1, "--grid", grid, "--format", "csv"),
           "disp.csv", lambda p: ref.check_dispersion(p, "csv", c1_matrix,
                                                      DISPERSION_GRID)),
        Op("dispersion", ("--coin", c1, "--grid", grid, "--format", "json"),
           "disp.json", lambda p: ref.check_dispersion(p, "json", c1_matrix,
                                                       DISPERSION_GRID)),
        Op("simulate", ("--coin", "grover", "--steps", "50"), "walk50.csv",
           lambda p: ref.check_distribution(p, 50, ref.GROVER_T50_PEAKS)),
    ]
