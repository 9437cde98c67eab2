"""Momentum-space analysis of the three-state walk.

Each Fourier mode evolves under the 3x3 unitary
``U(k) = diag(exp(-ik), 1, exp(ik)) . C``.  Its eigenphases omega_j(k) are
the dispersion relations of the walk; their derivatives are group
velocities, and the ballistic probability fronts travel at the extremal
group velocity, attained at the stationary wavenumber k0 where the second
derivative of omega vanishes.

Peak velocities and k0 use exact band slopes: by the Hellmann-Feynman
theorem the band through the unit eigenvector v of U(k) has slope
|v_R|^2 - |v_L|^2, so they need neither branch tracking nor differencing.
A cheaper coarse pass over the grid only locates the extremes: it solves
the characteristic cubic of U(k) in closed form and differentiates it
implicitly.  Samples near a band touching, where the cubic is
ill-conditioned, fall back to the eigenvector slopes, and so does every
sample whose slope ties with the grid extreme, so the extremes and the
refinement that follows are those of the eigenvector slopes alone.

Dispersion tables track branches across the momentum grid by phase
continuation against a linear prediction (unwrapped, so a branch may wind
out of (-pi, pi] across the zone), with finite-difference group
velocities.  The flat branch, when present, is moved to index 2.  The
sequential tracking rule defines the branches: each sample follows from
the two before it.  It is solved in bulk, by a guess that is then checked
against the rule at every sample at once, with the rule itself run only
where the check fails, so the branches are those of the rule bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import permutations

import numpy as np

from .coins import (Coin, InvariantViolation, _csv_text, _freeze, _to_json,
                    _unitary_eig, _write_text)

__all__ = [
    "BranchTrackingError",
    "DispersionTable",
    "PeakVelocityResult",
    "dispersion_numeric",
    "group_velocity",
    "peak_velocities_numeric",
    "peak_velocity_c1",
    "peak_velocity_c2",
    "linear_approx_deviation",
]

DEFAULT_GRID = 4096
# Largest allowed phase step between consecutive grid samples of one branch.
BRANCH_JUMP_THRESHOLD = math.pi / 4
# A branch whose total phase variation stays below this is considered flat.
FLAT_BAND_TOL = 1e-8

_PERMS = np.array(list(permutations(range(3))))
# _COMPOSE[a, b] indexes the permutation _PERMS[a][_PERMS[b]].
_COMPOSE = np.array([[_PERMS.tolist().index(list(a[b])) for b in _PERMS]
                     for a in _PERMS])
# Samples run through the tracking rule after a failed guess, before the
# rest of the grid is guessed again.
_REPAIR_BLOCK = 16
_TWO_PI = 2.0 * math.pi
# Off-grid refinement stops once its bracket is narrower than this (rad).
_ZOOM_RESOLUTION = 1e-10
# Below this |dp/dlambda| two eigenvalues nearly meet and the cubic's roots
# lose accuracy, so the sample takes the eigenvector slopes instead.
_CUBIC_GAP = 1e-3
# Cubic slopes this close to a grid extreme are recomputed from eigenvectors;
# the cubic is off by at most about 2e-10, so every tie is caught.
_TIE_MARGIN = 1e-8


class BranchTrackingError(Exception):
    """Eigenphase branches could not be continued across the grid."""

    def __init__(self, message: str, k: float):
        super().__init__(message)
        self.k = k


def _propagator_batch(matrix: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """U(k) = diag(exp(-ik), 1, exp(ik)) . C at every k, shape (ks.size, 3, 3)."""
    phase = np.empty((ks.size, 3), dtype=np.complex128)
    phase[:, 0] = np.exp(-1j * ks)
    phase[:, 1] = 1.0
    phase[:, 2] = np.exp(1j * ks)
    return phase[:, :, None] * matrix[None, :, :]


@dataclass(frozen=True)
class DispersionTable:
    """Tracked eigenphase branches omega_j(k) over a uniform momentum grid.

    ``branches[j]`` is a continuous (unwrapped) phase sequence;
    ``exp(i branches[:, n])`` reproduces the eigenvalue set of U(k_n).
    ``eigenvectors[n, :, j]``, when present, is the unit eigenvector of
    branch j at sample n.  The source coin is kept for the JSON record.
    """

    k_grid: np.ndarray
    branches: np.ndarray
    coin: Coin
    eigenvectors: np.ndarray | None = None

    def __post_init__(self) -> None:
        ks = _freeze(self, "k_grid", float)
        br = _freeze(self, "branches", float)
        if ks.ndim != 1 or br.shape != (3, ks.size):
            raise ValueError("need a 1-d k grid and (3, n) branch array")
        if self.eigenvectors is not None:
            _freeze(self, "eigenvectors", np.complex128)

    @property
    def spacing(self) -> float:
        return float(self.k_grid[1] - self.k_grid[0])

    def branch_steps(self, branch: int) -> np.ndarray:
        """Consecutive phase increments, with the seam step wrapped.

        The branch value is 2pi-periodic only up to winding, so the step
        from the last sample back to k=0 is reduced to its principal value.
        """
        omega = self.branches[branch]
        steps = np.empty_like(omega)
        steps[:-1] = np.diff(omega)
        seam = omega[0] - omega[-1]
        steps[-1] = seam - _TWO_PI * np.round(seam / _TWO_PI)
        return steps

    def is_flat(self, branch: int) -> bool:
        omega = self.branches[branch]
        return bool(np.max(np.abs(omega - omega.mean())) < FLAT_BAND_TOL)

    def to_csv(self, path) -> None:
        vs = [group_velocity(self, j) for j in range(3)]
        _write_text(path, _csv_text("k,omega1,omega2,omega3,v1,v2,v3",
                                    self.k_grid, *self.branches, *vs))

    def to_json(self) -> str:
        return _to_json({"k": self.k_grid, "omega": self.branches,
                         "coin": self.coin})


def dispersion_numeric(
    coin: Coin,
    n_samples: int = DEFAULT_GRID,
    *,
    include_eigenvectors: bool = False,
) -> DispersionTable:
    """Sample and track the eigenphase branches of U(k) on [0, 2pi).

    Branches are continued sample to sample by the permutation of phases
    (each shifted by a multiple of 2pi) closest to the linear extrapolation
    of the branch.  A step larger than ``BRANCH_JUMP_THRESHOLD`` aborts with
    the offending k.  This sequential rule is the definition; it is solved
    by speculation and exact verification (see ``_track``), and the result
    is the rule's bit for bit.  After tracking, the branch of least phase
    variance is moved to index 2, so a flat band always sits there; the
    other two are ordered by descending mean phase.
    """
    if n_samples < 16:
        raise ValueError("dispersion grid needs at least 16 samples")
    ks = np.arange(n_samples) * (_TWO_PI / n_samples)
    raw = np.angle(np.linalg.eigvals(_propagator_batch(coin.matrix, ks)))
    branches = _track(raw, ks)

    spread = np.max(np.abs(branches - branches.mean(axis=1, keepdims=True)), axis=1)
    flat = int(np.argmin(spread))
    rest = sorted((j for j in range(3) if j != flat),
                  key=lambda j: -branches[j].mean())
    order = [*rest, flat]
    branches = branches[order]

    vectors = None
    if include_eigenvectors:
        vectors = _eigenvector_pass(coin.matrix, ks, branches)
    return DispersionTable(ks, branches, coin, vectors)


def _continue_branches(raw: np.ndarray, prev: np.ndarray, prev2: np.ndarray):
    """The tracking rule, at one sample or at every row of a batch at once.

    Continues branch values ``prev`` (and ``prev2`` one sample earlier) onto
    the eigenphases ``raw``; each has shape (3,) or (m, 3).  Returns the new
    values, the index into ``_PERMS`` of the assignment taken and the
    largest jump.
    """
    # Matching against the linear extrapolation (not the last value) carries
    # each branch straight through an exact band crossing, where all
    # assignments are equally near the previous sample.
    pred = (2.0 * prev - prev2)[..., None, :]
    cand = raw[..., _PERMS]                     # (..., 6, 3) phase orderings
    cand = cand + _TWO_PI * ((pred - cand) / _TWO_PI).round()
    best = np.abs(cand - pred).max(axis=-1).argmin(axis=-1)
    values = cand[best] if raw.ndim == 1 else cand[np.arange(len(raw)), best]
    return values, best, np.abs(values - prev).max(axis=-1)


def _apply_rule(raw: np.ndarray, ks: np.ndarray, out: np.ndarray,
                start: int, stop: int) -> int:
    """Run the tracking rule sample by sample over [start, stop).

    ``out[n + 1]`` holds sample n.  Returns the assignment index of the last
    sample; raises ``BranchTrackingError`` at the first excessive jump.
    """
    for n in range(start, stop):
        values, best, jump = _continue_branches(raw[n], out[n], out[n - 1])
        if jump > BRANCH_JUMP_THRESHOLD:
            raise BranchTrackingError(
                f"branch jump {jump:.3g} rad exceeds threshold "
                f"{BRANCH_JUMP_THRESHOLD:.3g} at k = {ks[n]:.6f}",
                k=float(ks[n]),
            )
        out[n + 1] = values
    return int(best)


def _track(raw: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Solve the tracking recurrence over the grid; returns (3, n) branches.

    Sample 0 takes the sorted phases and every later sample the result of
    ``_continue_branches`` on the two before it.  The solution is guessed
    in bulk and then checked against the rule at every sample at once: an
    array that satisfies the recurrence bit for bit is its one solution.
    The guess continues each phase to its nearest neighbour in the next
    sample.  At the first sample that fails the check the rule runs for
    ``_REPAIR_BLOCK`` samples and the tail is guessed again; a second
    failure runs the rule to the end.
    """
    n = len(raw)
    out = np.empty((n + 1, 3))                  # out[0] repeats sample 0
    out[0] = out[1] = np.sort(raw[0])
    # step[i]: the assignment that carries sample i onto its nearest
    # neighbours in sample i + 1, which is the rule with a zero slope.
    _, step, _ = _continue_branches(raw[1:], raw[:-1], raw[:-1])
    start, perm = 1, _PERMS.tolist().index(np.argsort(raw[0]).tolist())
    for block in (_REPAIR_BLOCK, n):
        if start == n:
            break
        # Assignments of samples start - 1 .. n - 1 by a doubling scan.
        scan = np.concatenate(([perm], step[start - 1:]))
        shift = 1
        while shift < scan.size:
            scan[shift:] = _COMPOSE[scan[shift:], scan[:-shift]]
            shift *= 2
        phases = np.take_along_axis(raw[start - 1:], _PERMS[scan], axis=1)
        winding = np.round((out[start] - phases[0]) / _TWO_PI) + np.cumsum(
            np.round((phases[:-1] - phases[1:]) / _TWO_PI), axis=0)
        out[start + 1:] = phases[1:] + _TWO_PI * winding
        values, _, jump = _continue_branches(raw[start:], out[start:n],
                                             out[start - 1:n - 1])
        bad = np.any(values.view(np.int64) != out[start + 1:].view(np.int64),
                     axis=1) | (jump > BRANCH_JUMP_THRESHOLD)
        if not bad.any():
            break
        first = start + int(np.argmax(bad))
        start = min(first + block, n)
        perm = _apply_rule(raw, ks, out, first, start)
    # C order, as the loop wrote it: a strided view sums its means in
    # another order, with other rounding.
    return np.ascontiguousarray(out[1:].T)


def _eigenvector_pass(matrix: np.ndarray, ks: np.ndarray,
                      branches: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors per sample, columns aligned with branches.

    Each sample takes the assignment of eigenvalues to branches, among the
    six, that lies nearest the tracked phases.
    """
    lam, vec = _unitary_eig(_propagator_batch(matrix, ks))
    target = np.exp(1j * branches.T)                                  # (n, 3)
    cost = np.abs(lam[:, _PERMS] - target[:, None, :]).sum(axis=2)    # (n, 6)
    perm = _PERMS[np.argmin(cost, axis=1)]
    return np.take_along_axis(vec, perm[:, None, :], axis=2)


def group_velocity(table: DispersionTable, branch: int) -> np.ndarray:
    """d omega/dk per sample via central differences with periodic seam."""
    h = table.spacing
    if np.max(np.abs(np.diff(table.k_grid) - h)) > 1e-9 * h:
        raise ValueError("group velocity requires a uniform momentum grid")
    steps = table.branch_steps(branch)
    return (steps + np.roll(steps, 1)) / (2.0 * h)


def _band_slopes(matrix: np.ndarray, ks: np.ndarray):
    """Exact slopes d omega/dk of the three eigenpairs of U(k) at every k.

    The result has shape ``ks.shape + (3,)``.  Since dU/dk =
    i diag(-1, 0, 1) U, the Hellmann-Feynman theorem gives the slope of the
    band through the unit eigenvector v as |v_R|^2 - |v_L|^2, which lies in
    [-1, 1].  At a degenerate point any basis of the eigenspace gives values
    between the one-sided slopes of the bands that meet there, so extrema
    taken over samples never overshoot.
    """
    _, vec = _unitary_eig(_propagator_batch(matrix, ks.ravel()))
    weight = np.abs(vec) ** 2
    return (weight[:, 2, :] - weight[:, 0, :]).reshape(ks.shape + (3,))


def _cubic_slopes(matrix: np.ndarray, ks: np.ndarray):
    """Slopes d omega/dk of the three roots of det(lambda - U(k)) at every k.

    Returns ``(slopes, exact)``: slopes of shape ``(ks.size, 3)`` in no
    particular band order, and a mask of the samples taken from
    ``_band_slopes`` instead.  Since det U = d = det C and U is unitary, the
    characteristic polynomial is p = lambda^3 - a lambda^2 + d conj(a) lambda
    - d with a = tr U(k).  Cardano's formula gives its roots, and implicit
    differentiation gives d lambda/dk = -(dp/dk) / (dp/dlambda), so the slope
    is Re(lambda' / (i lambda)).  A sample where some |dp/dlambda| is below
    ``_CUBIC_GAP`` sits near a band touching, where both steps lose
    accuracy; it is marked and its slopes come from ``_band_slopes``.
    """
    em, ep = np.exp(-1j * ks), np.exp(1j * ks)
    a = em * matrix[0, 0] + matrix[1, 1] + ep * matrix[2, 2]
    da = 1j * (ep * matrix[2, 2] - em * matrix[0, 0])
    d = np.linalg.det(matrix)
    e2 = d * a.conj()
    d0 = a * a - 3.0 * e2
    d1 = (9.0 * e2 - 2.0 * a * a) * a - 27.0 * d
    root = np.sqrt(d1 * d1 - 4.0 * d0 ** 3)
    w = np.where(np.abs(d1 + root) >= np.abs(d1 - root), d1 + root, d1 - root)
    c = (w / 2.0) ** (1.0 / 3.0)
    c = c[:, None] * np.exp(_TWO_PI / 3.0 * 1j * np.arange(3))
    # Three times the roots (the normalization drops the factor).  A triple
    # root has c = 0 = d0, and its quotient d0/c is taken as 0.
    lam = a[:, None] - c - d0[:, None] / np.where(c == 0.0, 1.0, c)
    lam = lam / np.abs(lam)
    dp = (3.0 * lam - 2.0 * a[:, None]) * lam + e2[:, None]
    kp = (d * da.conj()[:, None] - da[:, None] * lam) * lam
    near = np.abs(dp) < _CUBIC_GAP
    slopes = np.real(-kp / (1j * lam * np.where(near, 1.0, dp)))
    exact = near.any(axis=1)
    slopes[exact] = _band_slopes(matrix, ks[exact])
    return slopes, exact


def _zoom(objective, centers: np.ndarray, half_width: float):
    """Maximize ``objective`` near each of ``centers`` by shrinking brackets.

    ``objective`` maps a (len(centers), 9) array of k to values.  Each pass
    samples [c - w, c + w] at nine points, recentres on the best sample and
    quarters w, so the new bracket still holds both neighbours of the best
    sample; the centre itself is resampled, so the best value never drops.
    Returns the final centres and their values.  The values are good to
    rounding, but a centre only to about the square root of the rounding in
    the values (measured 4-5e-8 rad), however narrow the final bracket: near
    a maximum the objective is flat to second order.
    """
    offsets = np.linspace(-1.0, 1.0, 9)
    c = np.asarray(centers, dtype=float)
    while True:
        ks = c[:, None] + half_width * offsets
        values = objective(ks)
        best = np.argmax(values, axis=1)[:, None]
        c = np.take_along_axis(ks, best, axis=1)[:, 0]
        if half_width < _ZOOM_RESOLUTION:
            return c, np.take_along_axis(values, best, axis=1)[:, 0]
        half_width /= 4.0


@dataclass(frozen=True)
class PeakVelocityResult:
    """Velocities of the ballistic probability fronts.

    ``v_right``/``v_left`` are the extremal group velocities in sites per
    step; ``k0`` is the stationary wavenumber they are attained at, when one
    was identified.  ``method`` names how they were found.
    """

    v_left: float
    v_right: float
    k0: float | None
    method: str = "numeric"

    def __post_init__(self) -> None:
        if abs(self.v_right) > 1.0 + 1e-9 or abs(self.v_left) > 1.0 + 1e-9:
            raise InvariantViolation(
                f"peak velocity ({self.v_left}, {self.v_right}) breaks the "
                "one-site-per-step light cone"
            )

    def to_json(self) -> str:
        return _to_json(asdict(self))


def peak_velocities_numeric(coin: Coin,
                            n_samples: int = DEFAULT_GRID) -> PeakVelocityResult:
    """Peak velocities from the exact band slopes of U(k).

    The Hellmann-Feynman slope of every eigenpair is taken on the grid; the
    largest and the smallest are each refined off-grid within one spacing and
    give v_right and v_left.  No branch is tracked, so band touchings need no
    special care.  k0 is the stationary wavenumber where v_right is attained,
    as its representative in [0, pi] under k -> 2pi - k, which maps the
    velocity maximum of a parity-symmetric family onto its minimum; it needs
    at least 256 samples and is None on smaller grids.  A coin whose slopes
    all vanish (every branch flat) does not spread: the velocities are zero
    and k0 is absent.

    The grid pass takes the slopes from the characteristic cubic
    (``_cubic_slopes``), which sends samples near a band touching to the
    eigenvector slopes.  Every other sample whose largest or smallest slope
    lies within ``_TIE_MARGIN`` of the grid extreme is then recomputed from
    eigenvectors too.  The cubic errs by far less than that margin, so the
    grid extremes, the first sample attaining each (parity-symmetric coins
    have mirror-image ties) and the results are exactly those of eigenvector
    slopes on the whole grid.  The velocities are good to rounding; k0 only
    to about 1e-7 rad, although it is printed with 17 digits, because the
    slope is flat to second order at its maximum (see ``_zoom``).
    """
    if n_samples < 16:
        raise ValueError("velocity grid needs at least 16 samples")
    ks = np.arange(n_samples) * (_TWO_PI / n_samples)
    slopes, exact = _cubic_slopes(coin.matrix, ks)
    top, bottom = slopes.max(axis=1), slopes.min(axis=1)
    ties = ~exact & ((top >= top.max() - _TIE_MARGIN)
                     | (bottom <= bottom.min() + _TIE_MARGIN))
    slopes[ties] = _band_slopes(coin.matrix, ks[ties])
    if np.max(np.abs(slopes)) < FLAT_BAND_TOL:
        return PeakVelocityResult(0.0, 0.0, None)
    sign = np.array([1.0, -1.0])[:, None, None]
    centers = ks[[np.argmax(slopes.max(axis=1)), np.argmin(slopes.min(axis=1))]]
    k, v = _zoom(
        lambda kk: (sign * _band_slopes(coin.matrix, kk)).max(axis=-1),
        centers, _TWO_PI / n_samples,
    )
    k0 = float(k[0]) % _TWO_PI
    k0 = min(k0, _TWO_PI - k0) if n_samples >= 256 else None
    return PeakVelocityResult(-float(v[1]), float(v[0]), k0)


def peak_velocity_c1(phi: float) -> float:
    """Closed-form peak velocity of the eigenvalue-deformed walk.

    Decreases from 1/sqrt(3) at phi = 0 to zero at phi = pi/2.
    """
    if not 0.0 <= phi <= math.pi / 2.0:
        raise ValueError(f"phi must lie in [0, pi/2], got {phi}")
    c2 = math.cos(phi) ** 2
    inner = 3.0 - c2 - math.sin(phi) * math.sqrt(9.0 - c2)
    return math.sqrt(max(inner, 0.0) / 6.0)


def peak_velocity_c2(rho: float) -> float:
    """Closed-form peak velocity of the eigenvector-deformed walk: rho itself."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return float(rho)


def linear_approx_deviation(phi: float) -> float:
    """Deviation of the C1 peak velocity from the straight-line approximation.

    The velocity falls almost linearly between its endpoint values; this
    returns peak_velocity_c1(phi) - (1 - 2 phi/pi)/sqrt(3), which vanishes
    at both endpoints.
    """
    return peak_velocity_c1(phi) - (1.0 - 2.0 * phi / math.pi) / math.sqrt(3.0)
