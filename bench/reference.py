"""Independent references and output checks for the benchmark.

Nothing here imports ``triwalk``: every expected value is computed by the
benchmark's own code (closed forms, a dense Hellmann-Feynman scan, LAPACK
eigenvalues of U(k), a bound-state projection), so a defect in the package
shows as a failed check instead of agreeing with itself.

Tolerances, each applied to one output field:

- ``VELOCITY_TOL``: numeric peak velocities against closed forms and against
  the Hellmann-Feynman scan (absolute, sites per step).
- ``EIGENPHASE_TOL``: ``exp(i omega)`` of each dispersion row against the
  eigenvalues of U(k), after the best of the six matchings.
- ``NORM_TOL``: ``|sum_m p(m, T) - 1|`` of a simulated distribution.
- ``TRAP_TOL``: Cesaro trapping estimate against the exact flat-band limit.
- ``EXACT_TOL``: values the CLI computes from a closed form (sweep columns).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import numpy as np

VELOCITY_TOL = 1e-6
EIGENPHASE_TOL = 1e-9
NORM_TOL = 1e-12
TRAP_TOL = 1e-3
EXACT_TOL = 1e-12

# Grover walk from (1, -1, 1)/sqrt(3) at T = 50: half-line maxima.
GROVER_T50_PEAKS = (-27, 27)
# Dense grid for the Hellmann-Feynman velocity scan of custom coins.
HF_GRID = 2 ** 17

GROVER = (np.full((3, 3), 2.0 / 3.0) - np.eye(3)).astype(complex)
DEFAULT_STATE = np.array([1.0, -1.0, 1.0], dtype=complex) / math.sqrt(3.0)

_PERMS = np.array(list(permutations(range(3))))


@dataclass
class Check:
    """Outcome of checking one output file.

    ``errors`` lists every failed comparison; ``diag`` holds the measured
    distance to the reference for the benchmark's diagnostics.
    """

    errors: list[str] = field(default_factory=list)
    diag: dict[str, float] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    @property
    def ok(self) -> bool:
        return not self.errors


# ---------------------------------------------------------------- references

def peak_velocity(family: str, p: float) -> float:
    """Closed-form peak velocity of the c1(phi) and c2(rho) walks.

    c1(0) and c2(1/sqrt(3)) are the Grover walk, at 1/sqrt(3).
    """
    if family == "c1":
        c2 = math.cos(p) ** 2
        inner = 3.0 - c2 - math.sin(p) * math.sqrt(9.0 - c2)
        return math.sqrt(max(inner, 0.0) / 6.0)
    if family == "c2":
        return float(p)
    raise ValueError(f"no closed form for {family!r}")


def straight_line(family: str, p: float) -> float:
    """Linear interpolation between the endpoint velocities of a family."""
    if family == "c1":
        return (1.0 - 2.0 * p / math.pi) / math.sqrt(3.0)
    return p


def propagators(matrix: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """U(k) = diag(exp(-ik), 1, exp(ik)) C for every k, shape (n, 3, 3)."""
    phase = np.stack([np.exp(-1j * ks), np.ones_like(ks, dtype=complex),
                      np.exp(1j * ks)], axis=1)
    return phase[:, :, None] * matrix[None, :, :]


def hf_velocity_range(matrix: np.ndarray, n: int = HF_GRID) -> tuple[float, float]:
    """(min, max) group velocity over a dense k grid, by Hellmann-Feynman.

    For U(k) = D(k) C the band slope is ``|v_R|^2 - |v_L|^2`` of the band's
    unit eigenvector, so no branch tracking or differencing is involved.
    """
    lo, hi = math.inf, -math.inf
    for chunk in np.array_split(np.arange(n) * (2.0 * math.pi / n), 8):
        _, vecs = np.linalg.eig(propagators(matrix, chunk))
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        slope = np.abs(vecs[:, 2, :]) ** 2 - np.abs(vecs[:, 0, :]) ** 2
        lo, hi = min(lo, float(slope.min())), max(hi, float(slope.max()))
    return lo, hi


def trapped_probability(matrix: np.ndarray, psi: np.ndarray,
                        n_modes: int = 4096) -> float:
    """Infinite-time origin probability from the eigenvalue-1 flat band.

    The null vector of U(k) - I (last right-singular vector) spans the bound
    band at every k; averaging its projector applied to psi over the zone
    gives the trapped amplitude at the origin.
    """
    ks = 2.0 * math.pi * (np.arange(n_modes) + 0.5) / n_modes
    a = propagators(matrix, ks) - np.eye(3)
    v = np.linalg.svd(a)[2][:, -1, :].conj()
    trapped = ((v.conj() @ psi)[:, None] * v).mean(axis=0)
    return float(np.sum(np.abs(trapped) ** 2))


def haar_coin(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 3x3 unitary: QR of a complex Gaussian with a phase fix."""
    z = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def coin_json(matrix: np.ndarray) -> str:
    """A custom coin in the CLI's ``matrix:<path>`` JSON format."""
    return json.dumps({
        "family": "custom",
        "parameter": None,
        "matrix": [[float(z.real), float(z.imag)] for z in matrix.ravel()],
    })


def c1_matrix(phi: float) -> np.ndarray:
    """The c1(phi) coin from its closed form.

    The Grover eigenvalue -1 on (1, -2, 1)/sqrt(6) becomes -exp(2i phi):
    C = G + (1 - exp(2i phi)) P.
    """
    u = np.array([1.0, -2.0, 1.0]) / math.sqrt(6.0)
    return GROVER + (1.0 - np.exp(2j * phi)) * np.outer(u, u)


# -------------------------------------------------------------------- checks

def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def check_distribution(path: Path, steps: int, peaks: tuple[int, int] | None) -> Check:
    """p(m, T) CSV: support exactly [-T, T], unit norm, optional side peaks."""
    c = Check()
    header, data = _read_csv(path)
    c.expect(header == ["m", "p"], f"unexpected header {header}")
    m, p = data[:, 0].astype(int), data[:, 1]
    c.expect(m.size == 2 * steps + 1 and m[0] == -steps and m[-1] == steps
             and bool(np.all(np.diff(m) == 1)),
             f"support is not [-{steps}, {steps}]")
    c.expect(bool(np.all(p >= 0.0)), "negative probability")
    drift = abs(float(np.sum(p)) - 1.0)
    c.diag["norm_drift"] = drift
    c.expect(drift <= NORM_TOL, f"norm drift {drift:.3e} > {NORM_TOL:g}")
    if peaks is not None:
        left = int(m[m < 0][np.argmax(p[m < 0])])
        right = int(m[m > 0][np.argmax(p[m > 0])])
        c.expect((left, right) == peaks, f"side peaks {(left, right)} != {peaks}")
    return c


def check_localize(path: Path, steps: int, exact: float) -> Check:
    """Localization JSON: series shape, p(0,0) = 1, flat band, trapping limit."""
    c = Check()
    data = json.loads(path.read_text(encoding="utf-8"))
    series = np.asarray(data["series"], dtype=float)
    c.expect(series.size == steps + 1, f"series has {series.size} points")
    c.expect(abs(series[0] - 1.0) <= NORM_TOL, f"p(0, 0) = {series[0]!r}")
    c.expect(data["flat_band"] is True, "flat band not detected")
    gap = float(data["trapping_estimate"]) - exact
    c.diag["trap_gap"] = gap
    c.expect(abs(gap) <= TRAP_TOL,
             f"trapping {data['trapping_estimate']:.6f} vs exact {exact:.6f}")
    return c


def check_velocity(path: Path, v_min: float, v_max: float) -> Check:
    """Velocity JSON: v_left and v_right against the reference extremes."""
    c = Check()
    data = json.loads(path.read_text(encoding="utf-8"))
    err = max(abs(data["v_left"] - v_min), abs(data["v_right"] - v_max))
    c.diag["velocity_err"] = err
    c.expect(err <= VELOCITY_TOL,
             f"velocity ({data['v_left']!r}, {data['v_right']!r}) vs "
             f"({v_min!r}, {v_max!r}): error {err:.3e} > {VELOCITY_TOL:g}")
    return c


def _eigenphase_errors(matrix: np.ndarray, ks: np.ndarray,
                       omega: np.ndarray) -> float:
    lam = np.linalg.eigvals(propagators(matrix, ks))            # (n, 3)
    e = np.exp(1j * omega.T)                                    # (n, 3)
    cost = np.abs(e[:, _PERMS] - lam[:, None, :]).max(axis=2)   # (n, 6)
    return float(cost.min(axis=1).max())


def check_dispersion(path: Path, fmt: str, matrix: np.ndarray, n: int) -> Check:
    """Dispersion CSV/JSON: uniform k grid and exp(i omega) = eig U(k) per row."""
    c = Check()
    if fmt == "csv":
        header, data = _read_csv(path)
        c.expect(header[:4] == ["k", "omega1", "omega2", "omega3"],
                 f"unexpected header {header}")
        ks, omega = data[:, 0], data[:, 1:4].T
    else:
        data = json.loads(path.read_text(encoding="utf-8"))
        ks, omega = np.asarray(data["k"]), np.asarray(data["omega"])
    ref = np.arange(n) * (2.0 * math.pi / n)
    c.expect(ks.shape == ref.shape and bool(np.allclose(ks, ref, rtol=0, atol=1e-12)),
             "k grid is not uniform on [0, 2pi)")
    if ks.shape == ref.shape and omega.shape == (3, n):
        err = _eigenphase_errors(matrix, ks, omega)
        c.diag["eigenphase_err"] = err
        c.expect(err <= EIGENPHASE_TOL,
                 f"exp(i omega) off eig U(k) by {err:.3e} > {EIGENPHASE_TOL:g}")
    else:
        c.errors.append(f"omega has shape {omega.shape}")
    return c


def check_sweep(path: Path, family: str, points: int) -> Check:
    """Sweep CSV: parameter grid, analytic columns, numeric velocity per row."""
    c = Check()
    header, data = _read_csv(path)
    c.expect(header == ["parameter", "v_analytic", "v_numeric",
                        "deviation_from_linear"], f"unexpected header {header}")
    end = math.pi / 2.0 if family == "c1" else 1.0
    grid = np.linspace(0.0, end, points)
    if data.shape != (points, 4):
        c.errors.append(f"sweep has shape {data.shape}")
        return c
    c.expect(bool(np.all(data[:, 0] == grid)), "parameter grid differs")
    ref = np.array([peak_velocity(family, p) for p in grid])
    lin = np.array([straight_line(family, p) for p in grid])
    c.expect(float(np.max(np.abs(data[:, 1] - ref))) <= EXACT_TOL,
             "v_analytic differs from the closed form")
    c.expect(float(np.max(np.abs(data[:, 3] - (ref - lin)))) <= EXACT_TOL,
             "deviation_from_linear differs from the closed form")
    errs = np.abs(data[:, 2] - ref)
    worst = int(np.argmax(errs))
    c.diag["velocity_err"] = float(errs[worst])
    c.expect(errs[worst] <= VELOCITY_TOL,
             f"v_numeric off by {errs[worst]:.3e} at parameter {grid[worst]!r}")
    return c
