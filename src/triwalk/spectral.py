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
the characteristic cubic of U(k) in closed form, and each root's slope is
read from its spectral projector adj(lambda - U) / p'(lambda), the one
closed form behind every slope here.  The samples near a band touching,
where the cubic is ill-conditioned, and those whose slope ties with the
grid extreme then take the eigenvector slopes in one pass, so the extremes
and the refinement that follows are those of the eigenvector slopes alone.
Away from the touchings the projector slopes of all three bands are good
to about 2e-10, so a coin whose bands they find all flat needs only its
marked samples bounded: there a closed-form bound on every band's slope,
built from the projector of the best separated eigenvalue, decides.  The
flat endpoints of both families and the flat cyclic coins pass it and need
no eigensolve at all.  A coin that commutes with the L<->R exchange P has
U(2pi - k) = P U(k) P, so its slopes at 2pi - k are those at k, negated;
when its matrix equals its mirror image exactly, the coarse pass solves
the cubic on half the zone only.  Every eigensolve takes at most
``_EIG_BLOCK`` matrices at a time.

Dispersion tables track branches across the momentum grid by phase
continuation against a linear prediction (unwrapped, so a branch may wind
out of (-pi, pi] across the zone), with finite-difference group
velocities.  The flat branch, when present, is moved to index 2.  The
sequential tracking rule defines the branches: each sample follows from
the two before it.  It is solved in bulk, by a guess that is then checked
against the rule at every sample at once; from the first sample that
fails the check the rule itself runs to the end, so the branches are those
of the rule bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import permutations, product

import numpy as np

from .coins import (Coin, InvariantViolation, _count, _csv_text, _finite,
                    _freeze, _to_json, _unitary_eig)

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
_TWO_PI = 2.0 * math.pi
# Off-grid refinement stops once its bracket is narrower than this (rad).
_ZOOM_RESOLUTION = 1e-10
# Below this |dp/dlambda| two eigenvalues nearly meet and the cubic's roots
# lose accuracy, so the sample takes the eigenvector slopes instead.
_CUBIC_GAP = 1e-3
# Cubic slopes this close to a grid extreme are recomputed from eigenvectors;
# the cubic is off by at most about 2e-10, so every tie is caught.
_TIE_MARGIN = 1e-8
# The cube roots of unity.
_UNITY = np.exp(_TWO_PI / 3.0 * 1j * np.arange(3))
# Most 3x3 matrices one eigensolve takes: the grid's eigenvector pass runs
# over this many samples at a time, and a zoom over as many coins as fit.
_EIG_BLOCK = 512


class BranchTrackingError(Exception):
    """Eigenphase branches could not be continued across the grid."""

    def __init__(self, message: str, k: float):
        super().__init__(message)
        self.k = k


def _grid(n_samples, what: str) -> np.ndarray:
    """The closed grid 2 pi j / n, j < n, for an integer n >= 16 (``what``)."""
    n = _count(n_samples, what)
    if n < 16:
        raise ValueError(f"{what} needs at least 16 samples")
    return np.arange(n) * (_TWO_PI / n)


def _propagator_batch(matrix: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """U(k) = diag(exp(-ik), 1, exp(ik)) . C at every k, shape ks.shape + (3, 3).

    ``matrix`` is one coin (3, 3) or a stack (..., 3, 3) that broadcasts
    against ``ks``.
    """
    phase = np.empty(ks.shape + (3,), dtype=np.complex128)
    phase[..., 0] = np.exp(-1j * ks)
    phase[..., 1] = 1.0
    phase[..., 2] = np.exp(1j * ks)
    return phase[..., :, None] * matrix


@dataclass(frozen=True)
class DispersionTable:
    """Tracked eigenphase branches omega_j(k) on the grid k_n = 2 pi n / N.

    ``branches[j]`` is a continuous (unwrapped) phase sequence over the N
    samples; ``exp(i branches[:, n])`` is the eigenvalue set of U(k_n).
    ``eigenvectors[n, :, j]``, when present, is the unit eigenvector of
    branch j at sample n.  The source coin is kept for the JSON record.
    """

    branches: np.ndarray
    coin: Coin
    eigenvectors: np.ndarray | None = None

    def __post_init__(self) -> None:
        br = _freeze(self, "branches", float)
        if br.ndim != 2 or len(br) != 3 or br.size == 0:
            raise ValueError(f"need a (3, n) branch array, got {br.shape}")
        if self.eigenvectors is not None:
            _freeze(self, "eigenvectors", np.complex128, (br.shape[1], 3, 3))

    @property
    def k_grid(self) -> np.ndarray:
        n = self.branches.shape[1]
        return np.arange(n) * (_TWO_PI / n)

    def to_csv(self) -> str:
        return _csv_text("k,omega1,omega2,omega3,v1,v2,v3", self.k_grid,
                         *self.branches, *group_velocity(self))

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
    ks = _grid(n_samples, "dispersion grid")
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
    return DispersionTable(branches, coin, vectors)


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


def _track(raw: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Solve the tracking recurrence over the grid; returns (3, n) branches.

    Sample 0 takes the sorted phases and every later sample the result of
    ``_continue_branches`` on the two before it.  The solution is guessed
    in bulk and then checked against the rule at every sample at once: an
    array that satisfies the recurrence bit for bit is its one solution.
    The guess continues each phase to its nearest neighbour in the next
    sample.  From the first sample that fails the check the rule runs
    sample by sample to the end, and raises ``BranchTrackingError`` at the
    first jump above ``BRANCH_JUMP_THRESHOLD``.
    """
    n = len(raw)
    out = np.empty((n + 1, 3))                  # out[0] repeats sample 0
    out[0] = out[1] = np.sort(raw[0])
    # step[i]: the assignment that carries sample i onto its nearest
    # neighbours in sample i + 1, which is the rule with a zero slope.
    _, step, _ = _continue_branches(raw[1:], raw[:-1], raw[:-1])
    # Row i of scan holds the flat indices into raw of sample i's phases,
    # in branch order.  A doubling scan composes the steps: row i - shift
    # plus 3 * shift points into row i, whose entries are read there.
    scan = np.vstack([np.argsort(raw[0]), _PERMS[step]])
    scan += np.arange(0, 3 * n, 3)[:, None]
    shift = 1
    while shift < n:
        scan[shift:] = np.take(scan, scan[:-shift] + 3 * shift)
        shift *= 2
    phases = np.take(raw, scan)
    # phases[0] is out[1], the sorted sample 0, which winds no turn.
    winding = np.cumsum(np.round((phases[:-1] - phases[1:]) / _TWO_PI), axis=0)
    out[2:] = phases[1:] + _TWO_PI * winding
    values, _, jump = _continue_branches(raw[1:], out[1:n], out[:n - 1])
    bad = np.any(values.view(np.int64) != out[2:].view(np.int64),
                 axis=1) | (jump > BRANCH_JUMP_THRESHOLD)
    # From the first sample that fails the check, the rule itself.
    for i in range(1 + int(np.argmax(bad)) if bad.any() else n, n):
        values, _, jump = _continue_branches(raw[i], out[i], out[i - 1])
        if jump > BRANCH_JUMP_THRESHOLD:
            raise BranchTrackingError(
                f"branch jump {jump:.3g} rad exceeds threshold "
                f"{BRANCH_JUMP_THRESHOLD:.3g} at k = {ks[i]:.6f}",
                k=float(ks[i]),
            )
        out[i + 1] = values
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


def group_velocity(table: DispersionTable) -> np.ndarray:
    """d omega/dk of every branch, shape (3, n), by central differences.

    A branch is 2pi-periodic only up to winding, so the step from the last
    sample back to k = 0 is reduced to its principal value.
    """
    omega = table.branches
    steps = np.diff(omega, append=omega[:, :1])
    steps[:, -1] -= _TWO_PI * np.round(steps[:, -1] / _TWO_PI)
    h = _TWO_PI / omega.shape[1]
    return (steps + np.roll(steps, 1, axis=1)) / (2.0 * h)


def _band_slopes(matrix: np.ndarray, ks: np.ndarray):
    """Exact slopes d omega/dk of the three eigenpairs of U(k) at every k.

    The result has shape ``ks.shape + (3,)``; ``matrix`` may be a stack of
    coins that broadcasts against ``ks`` (see ``_propagator_batch``).  Since
    dU/dk = i diag(-1, 0, 1) U, the Hellmann-Feynman theorem gives the slope
    of the band through the unit eigenvector v as |v_R|^2 - |v_L|^2, which
    lies in [-1, 1].  At a degenerate point any basis of the eigenspace gives
    values between the one-sided slopes of the bands that meet there, so
    extrema taken over samples never overshoot.
    """
    _, vec = _unitary_eig(_propagator_batch(matrix, ks))
    weight = np.abs(vec) ** 2
    return weight[..., 2, :] - weight[..., 0, :]


def _cubic_roots(matrix: np.ndarray, em: np.ndarray, ep: np.ndarray):
    """Roots of the characteristic cubic of U(k) and dp/dlambda at them.

    ``em`` and ``ep`` are exp(-ik) and exp(ik) on the grid.  Since det U = d
    = det C and U is unitary, p = lambda^3 - a lambda^2 + d conj(a) lambda
    - d with a = tr U(k).  Cardano's formula gives the roots, scaled to unit
    modulus.  Returns three pairs (lambda, p'(lambda)) of arrays shaped
    like ``em``, one per root, in no particular order: arrays of one root
    each stay small enough to be reused by the allocator, where (n, 3)
    arrays of all three are mapped and unmapped afresh at every step.  A
    pair, or a choice among the pairs at each sample, gives the root's
    projector through ``_projector``.
    """
    a = em * matrix[0, 0] + matrix[1, 1] + ep * matrix[2, 2]
    d = np.linalg.det(matrix)
    e2 = d * a.conj()
    d0 = a * a - 3.0 * e2
    d1 = (9.0 * e2 - 2.0 * a * a) * a - 27.0 * d
    root = np.sqrt(d1 * d1 - 4.0 * d0 ** 3)
    w = np.where(np.abs(d1 + root) >= np.abs(d1 - root), d1 + root, d1 - root)
    # The principal cube root of w / 2, without a complex power.
    c = np.cbrt(np.abs(w) / 2.0) * np.exp(1j / 3.0 * np.angle(w))
    # A triple root has c = 0 = d0, and its quotient d0/c is taken as 0.
    q = d0 / np.where(c == 0.0, 1.0, c)
    roots = []
    for u in _UNITY:
        # Three times the root of the cube root c u of w / 2 (the
        # normalization drops the factor), where d0 / (c u) = q conj(u).
        lam = a - c * u - q * u.conjugate()
        lam /= np.abs(lam)
        roots.append((lam, (3.0 * lam - 2.0 * a) * lam + e2))
    return roots


def _projector(matrix: np.ndarray, lam: np.ndarray, dp: np.ndarray,
               em: np.ndarray, ep: np.ndarray):
    """The projector P = adj(lambda - U(k)) / p'(lambda), entry by entry.

    ``lam`` and ``dp`` are a root of the characteristic cubic and p' there
    (see ``_cubic_roots``), shaped like ``em`` and ``ep``; at a simple root
    P projects onto the root's unit eigenvector v: P[i, j] = v_i conj(v_j).
    With U = Phi C and Phi = diag(exp(-ik), 1, exp(ik)), lambda - U = Phi N
    for N = lambda conj(Phi) - C, and adj(lambda - U) = adj(N) conj(Phi).
    N differs from -C only on its diagonal d, so adj(N)_ij = C_ij d_l +
    C_il C_lj off the diagonal, with l the third index, and adj(N)_ii =
    d_a d_b - C_ab C_ba on it, with a and b the other two.  Returns a
    function of (i, j) that builds P[i, j], shaped like ``lam``: an entry
    at a time keeps every array as small as one root's.
    """
    d = (lam * ep - matrix[0, 0], lam - matrix[1, 1], lam * em - matrix[2, 2])
    phase = (ep / dp, 1.0 / dp, em / dp)

    def entry(i: int, j: int) -> np.ndarray:
        if i == j:
            a, b = i - 2, i - 1                 # the other two, mod 3
            return (d[a] * d[b] - matrix[a, b] * matrix[b, a]) * phase[j]
        l = 3 - i - j
        return (matrix[i, j] * d[l] + matrix[i, l] * matrix[l, j]) * phase[j]
    return entry


def _cubic_slopes(matrix: np.ndarray, em: np.ndarray, ep: np.ndarray):
    """Slopes d omega/dk of the three roots of det(lambda - U(k)) at every k.

    Returns ``(slopes, near)``: band-major slopes of shape ``(3, em.size)``
    in no particular band order, and a mask of the samples whose slopes are
    not to be trusted.  Each root's slope is the Hellmann-Feynman slope
    Re(P22 - P00) of its projector (see ``_projector``), whose numerator
    adj(N)_22 exp(-ik) - adj(N)_00 exp(ik) is linear in lambda:
    (lambda - C11)(C22 exp(ik) - C00 exp(-ik)) + C12 C21 exp(ik)
    - C01 C10 exp(-ik).  A sample where some |p'(lambda)| is below
    ``_CUBIC_GAP`` sits near a band touching, where the roots lose
    accuracy; it is marked, and its slopes are left for the caller to
    replace.  The slopes only choose samples, so they need not have the
    bits of any other method: off the marked samples they err by about
    2e-10 at most, far below ``_TIE_MARGIN``.
    """
    tilt = ep * matrix[2, 2] - em * matrix[0, 0]
    rest = ep * (matrix[1, 2] * matrix[2, 1]) - em * (matrix[0, 1] * matrix[1, 0])
    slopes = np.empty((3, em.size))
    near = np.zeros(em.size, dtype=bool)
    for row, (lam, dp) in zip(slopes, _cubic_roots(matrix, em, ep)):
        top = (lam - matrix[1, 1]) * tilt + rest
        small = np.abs(dp) < _CUBIC_GAP
        near |= small
        row[:] = (top / np.where(small, 1.0, dp)).real
    return slopes, near


def _flat_bound(matrix: np.ndarray, em: np.ndarray, ep: np.ndarray):
    """An upper bound on |slope| of every band of U(k) at each sample.

    At each sample the root lambda_s with the largest |p'| is simple, and
    its projector P (see ``_projector``) gives its band the slope s = P22 -
    P00 (Hellmann-Feynman, Delta = diag(-1, 0, 1)).  The other two slopes
    are Rayleigh quotients of Delta on the range of I - P, bounded by the
    eigenvalues mu1, mu2 of E = (I - P) Delta (I - P), whose entries are
    E_ij = delta_ij Delta_ii + P_ij (s - Delta_ii - Delta_jj).  Since mu1 +
    mu2 = -s and mu1^2 + mu2^2 = |E|_F^2, both are at most (|s| + sqrt(2
    |E|_F^2 - s^2)) / 2 in modulus.  |E|_F^2 is summed entry by entry: its
    closed form 2 - 2(P00 + P22) + s^2 cancels, and on c1(pi/2) gave a
    bound of 1.5e-8, too loose to certify that flat coin.

    A sample whose largest |p'| is at most ``_CUBIC_GAP`` (three bands
    nearly meet) has an infinite bound; a NaN bound certifies nothing
    either.  The eigenvector slopes exceed the bound by about
    eps / |p'(lambda_s)|^2 at most.
    """
    (ls, g), *others = _cubic_roots(matrix, em, ep)
    largest = np.abs(g)
    for lam, dp in others:
        size = np.abs(dp)
        better = size > largest
        ls, g = np.where(better, lam, ls), np.where(better, dp, g)
        largest = np.maximum(largest, size, out=largest)
    unsure = largest <= _CUBIC_GAP
    g[unsure] = 1.0
    p = _projector(matrix, ls, g, em, ep)
    s = p(2, 2).real - p(0, 0).real
    # |E|_F^2 entry by entry, with Delta_ii = i - 1.
    norm2 = sum(np.abs(p(i, j) * (s - (i - 1) - (j - 1)) + (i == j) * (i - 1)) ** 2
                for i, j in product(range(3), repeat=2))
    s = np.abs(s)
    bound = np.maximum((s + np.sqrt(np.maximum(2.0 * norm2 - s * s, 0.0))) / 2.0, s)
    bound[unsure] = np.inf
    return bound


def _zoom(objective, centers: np.ndarray, half_width: float):
    """Maximize ``objective`` near each of ``centers`` by shrinking brackets.

    ``centers`` may have any shape; ``objective`` maps an array of k of
    shape ``centers.shape + (m,)`` to values.  Each pass samples
    [c - w, c + w] at nine points, recentres on the best sample and quarters
    w, so the new bracket still holds both neighbours of the best sample.
    The middle sample, offset 0, is k = c exactly, whose value the previous
    pass found: only the first pass evaluates all nine points (m = 9), each
    later one the other eight (m = 8), and the carried value fills the
    middle, so the best value never drops and ``argmax`` sees the nine
    values that evaluating all nine would give.  Returns the final centres
    and their values, each of the shape of ``centers``.  Every centre takes
    the same passes, so a batch of centres gives each the bits it gets
    alone.  The values are good to rounding, but a centre only to about the
    square root of the rounding in the values (measured 4-5e-8 rad), however
    narrow the final bracket: near a maximum the objective is flat to second
    order.
    """
    offsets = np.linspace(-1.0, 1.0, 9)
    outer = offsets != 0.0
    ks = np.asarray(centers, dtype=float)[..., None] + half_width * offsets
    values = objective(ks)
    while True:
        best = np.argmax(values, axis=-1)[..., None]
        c = np.take_along_axis(ks, best, axis=-1)
        v = np.take_along_axis(values, best, axis=-1)
        if half_width < _ZOOM_RESOLUTION:
            return c[..., 0], v[..., 0]
        half_width /= 4.0
        ks = c + half_width * offsets
        values = np.empty_like(ks)
        values[..., outer] = objective(ks[..., outer])
        values[..., ~outer] = v


@dataclass(frozen=True)
class PeakVelocityResult:
    """Velocities of the ballistic probability fronts.

    ``v_right``/``v_left`` are the extremal group velocities in sites per
    step; ``k0`` is the stationary wavenumber they are attained at, when one
    was identified, else None; a NaN, infinite, complex or bool ``k0`` is
    refused, with a ``ValueError``.  The CSV and JSON text also carry a
    ``method`` field, always ``"numeric"``.
    """

    v_left: float
    v_right: float
    k0: float | None

    def __post_init__(self) -> None:
        _finite(self, "k0")
        # A NaN compares false, so a NaN velocity fails the check too.
        if not all(abs(v) <= 1.0 + 1e-9 for v in (self.v_left, self.v_right)):
            raise InvariantViolation(
                f"peak velocity ({self.v_left}, {self.v_right}) breaks the "
                "one-site-per-step light cone"
            )

    def to_csv(self) -> str:
        return _csv_text("v_left,v_right,k0,method", [self.v_left],
                         [self.v_right], [self.k0], ["numeric"])

    def to_json(self) -> str:
        return _to_json({**asdict(self), "method": "numeric"})


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
    (``_cubic_slopes``), each root's the slope of its spectral projector.
    One eigenvector pass then recomputes the samples it marks as near a
    band touching, and every sample whose largest or smallest slope lies
    within ``_TIE_MARGIN`` of that extreme over the unmarked samples.  The
    cubic errs by far less than that margin, so the grid extremes, the
    first sample attaining each (parity-symmetric coins have mirror-image
    ties) and the results are exactly those of eigenvector slopes on the
    whole grid.  A coin that is its own L<->R mirror image solves the cubic
    on half the zone and mirrors its slopes onto the rest.  A coin whose
    projector slopes are all flat, and whose marked samples the closed-form
    ``_flat_bound`` certifies flat, skips that pass; the pass would find it
    flat too (see ``_peak_velocities``, which also states the half-zone
    rule and its error budget).  The velocities are good to rounding; k0
    is not, although it is printed with 17 digits, because the slope is
    flat to second order at its maximum (see ``_zoom``).  On a coin with
    one flat band it lies within about 6 sqrt(2.2e-16 / kappa) of the
    closed form, with kappa = v (1 - v^2) the slope's curvature at its
    maximum (a quarter of that where two bands touch): within 1.4e-7 rad
    for c1 at phi in [0.1, 1.5], and up to 2.7e-5 rad between pi/2 - 1e-3
    and pi/2 - 1e-6, where the velocity goes to zero.
    """
    return PeakVelocityResult(*_peak_velocities(coin.matrix[None], n_samples)[0])


def _peak_velocities(matrices: np.ndarray, n_samples: int,
                     left: bool = True) -> list[tuple]:
    """``peak_velocities_numeric`` for every coin of a (P, 3, 3) stack.

    Returns one ``(v_left, v_right, k0)`` triple per coin, the fields of its
    ``PeakVelocityResult``, which the caller builds if it needs one.

    Each coin takes its own grid pass, which keeps only the grid samples the
    zoom starts from.  One ``_zoom`` then refines the centres of every coin
    that is not flat, as many coins at a time as keep its first pass (nine
    samples per centre) within ``_EIG_BLOCK`` matrices, so the arrays of a
    pass stay the same size however many coins there are.  Each 3x3 is
    still solved on its own, so every result has the bits of a call per
    coin.  With ``left=False`` only the maximum is refined, for callers that
    read v_right and k0 alone: those keep their bits, since each centre is
    refined on its own, and v_left is NaN unless the coin is flat, so such
    a triple makes no ``PeakVelocityResult``.

    A coin whose unmarked cubic slopes all lie within ``FLAT_BAND_TOL / 2``
    of zero has its marked samples offered to ``_flat_bound``; when that
    bound too stays below ``FLAT_BAND_TOL / 2`` at each of them, the coin is
    flat with no eigensolve at all.  At an unmarked sample the three
    projector slopes are those of every band, to about 2e-10, and the
    eigenvector slopes exceed the bound by rounding only, so the grid pass
    below would call such a coin flat as well; every other coin takes that
    pass.  It recomputes the marked and tying samples ``_EIG_BLOCK`` at a
    time, which keeps its arrays small however many samples tie (every one,
    on c2(1)); LAPACK solves each 3x3 on its own, so the blocks change no bit.

    Half the zone serves a coin whose matrix equals ``matrix[::-1, ::-1]``
    exactly, which is to say commutes with the L<->R exchange P: there
    U(2pi - k) = P U(k) P, and the band slopes at 2pi - k are those at k,
    negated.  The cubic then runs on samples 0 .. n // 2 alone, and sample
    n - j takes the top slope -bottom[j], the bottom slope -top[j] and the
    mark near[j].  The mirrored values differ from the cubic's own at n - j
    by the grid's rounding of 2pi - k_j, which moves an unmarked slope by
    about 1e-12; with the cubic's own 2e-10 that stays far below
    ``_TIE_MARGIN``, and the samples that are recomputed are solved at their
    own k.  So the grid extremes, and the first sample attaining each, are
    still those of eigenvector slopes over the whole grid.
    """
    ks = _grid(n_samples, "velocity grid")
    n = ks.size
    em = np.exp(-1j * ks)
    ep = em.conj()
    # Samples half .. n - 1 mirror samples n - half .. 1 (see above).
    half = n // 2 + 1
    back = slice(n - half, 0, -1)
    centers = np.zeros((len(matrices), 2))
    live = np.zeros(len(matrices), dtype=bool)
    for i, matrix in enumerate(matrices):
        mirror = np.array_equal(matrix, matrix[::-1, ::-1])
        m = half if mirror else n
        slopes, near = _cubic_slopes(matrix, em[:m], ep[:m])
        top, bottom = slopes.max(axis=0), slopes.min(axis=0)
        if mirror:
            top, bottom = (np.concatenate([top, -bottom[back]]),
                           np.concatenate([bottom, -top[back]]))
            near = np.concatenate([near, near[back]])
        # Slopes lie in [-1, 1], so +-2 stand for "no unmarked sample".
        high = top.max(where=~near, initial=-2.0)
        low = bottom.min(where=~near, initial=2.0)
        if max(high, -low) < FLAT_BAND_TOL / 2 and np.all(
                _flat_bound(matrix, em[near], ep[near]) < FLAT_BAND_TOL / 2):
            continue
        exact = np.flatnonzero(near | (top >= high - _TIE_MARGIN)
                               | (bottom <= low + _TIE_MARGIN))
        for start in range(0, exact.size, _EIG_BLOCK):
            part = exact[start:start + _EIG_BLOCK]
            fixed = _band_slopes(matrix, ks[part])
            top[part], bottom[part] = fixed.max(axis=1), fixed.min(axis=1)
        if max(top.max(), -bottom.min()) >= FLAT_BAND_TOL:
            live[i] = True
            centers[i] = ks[[np.argmax(top), np.argmin(bottom)]]
    sign = np.array([1.0, -1.0] if left else [1.0])[:, None, None]
    results = [(0.0, 0.0, None)] * len(matrices)
    index = np.flatnonzero(live)
    coins = _EIG_BLOCK // (9 * sign.size)
    for start in range(0, index.size, coins):
        block = index[start:start + coins]
        stack = matrices[block][:, None, None]
        k, v = _zoom(lambda kk: (sign * _band_slopes(stack, kk)).max(axis=-1),
                     centers[block, :sign.size], _TWO_PI / n)
        for i, k_i, v_i in zip(block, k, v):
            k0 = float(k_i[0]) % _TWO_PI
            k0 = min(k0, _TWO_PI - k0) if n >= 256 else None
            results[i] = (-float(v_i[1]) if left else math.nan, float(v_i[0]), k0)
    return results


def peak_velocity_c1(phi: float) -> float:
    """Closed-form peak velocity of the eigenvalue-deformed walk.

    Decreases from 1/sqrt(3) at phi = 0 to zero at phi = pi/2.  With
    c2 = cos(phi)^2, the difference ``3 - c2 - sin(phi) sqrt(9 - c2)``
    cancels as phi -> pi/2, so the result errs by up to about
    2e-16 / (pi/2 - phi).  Against the cancellation-free
    ``4 c2 / (3 - c2 + sin(phi) sqrt(9 - c2))`` under the same square root
    it differs by at most 1.5e-14 near phi = 1.56, 1.5e-13 near
    pi/2 - 1e-3 and 1.6e-11 near pi/2 - 1e-5.  At pi/2 - 1e-8, where
    v = 3.3e-9, it returns 0.0.
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
