"""Exact position-space evolution of the three-state walk.

One step applies the coin to the amplitude triple at every site and then
shifts: the L component moves one site left, S stays, R moves one site
right.  After t steps the walker occupies at most the window [-t, t], and a
``WalkState`` stores exactly that window.  A walk is stepped in place in one
component-major buffer wide enough for its last step (see ``_walk``).  No
renormalization is ever applied; norm drift is a monitored invariant.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .coins import Coin, _csv_text, _freeze, _to_json, _write_text

__all__ = [
    "WalkState",
    "ProbabilityDistribution",
    "initial_state",
    "step",
    "evolve",
    "probability_distribution",
    "peak_positions",
]

NORM_TOL = 1e-12


def _count(value, what: str) -> int:
    """``value`` as an ``int``; anything but a non-negative integer is refused."""
    try:
        count = operator.index(value)
    except TypeError:
        count = -1
    if count < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return count


@dataclass(frozen=True)
class WalkState:
    """Walker state after ``time`` steps.

    ``amplitudes[i]`` is the (psi_L, psi_S, psi_R) triple at lattice site
    ``i - time``; the array covers the support window [-time, time].
    """

    time: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "time", _count(self.time, "time"))
        amps = _freeze(self, "amplitudes", np.complex128)
        if amps.shape != (2 * self.time + 1, 3):
            raise ValueError(f"state at t={self.time} needs shape "
                             f"{(2 * self.time + 1, 3)}, got {amps.shape}")

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def site_amplitudes(self, m: int) -> np.ndarray:
        """Amplitude triple at lattice site m (zero outside the window)."""
        if abs(m) > self.time:
            return np.zeros(3, dtype=np.complex128)
        return self.amplitudes[m + self.time]


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Position distribution p(m) at a fixed time."""

    time: int
    m_min: int
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = _freeze(self, "probabilities", float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must be a non-empty 1-d sequence")
        if np.min(p) < -NORM_TOL:
            raise ValueError("probabilities must be non-negative")

    @property
    def m_max(self) -> int:
        return self.m_min + len(self.probabilities) - 1

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.m_min, self.m_max + 1)

    def to_csv(self, path) -> None:
        _write_text(path, _csv_text("m,p", self.sites, self.probabilities))

    def to_json(self) -> str:
        return _to_json({"time": self.time, "m_min": self.m_min,
                         "m_max": self.m_max, "p": self.probabilities})


def initial_state(psi_c) -> WalkState:
    """Walker at the origin with coin state ``psi_c`` (must be normalized)."""
    psi = np.asarray(psi_c, dtype=np.complex128)
    if psi.shape != (3,):
        raise ValueError("initial coin state must have three components")
    norm = math.sqrt(float(np.sum(np.abs(psi) ** 2)))
    if not abs(norm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
        raise ValueError(f"initial coin state norm is {norm!r}, expected 1")
    return WalkState(0, psi[None, :])


def _walk(amplitudes: np.ndarray, coin: Coin, radii, half: int):
    """Step one buffer in place; yield it first and after each step.

    Row j of the zeroed ``(3, 2 * half + 1)`` buffer holds component j (L, S,
    R) at site ``column - half``; it starts with ``amplitudes``, a window
    centred on the origin.  For each radius r, sites |m| <= r get the coin as
    one matmul of the window's column-major view into a C-ordered product
    buffer, then the shift: three contiguous row writes over |m| <= r + 1.
    ``half`` must exceed every radius; a radius below the support leaves the
    sites beyond it stale.  BLAS packs the window operand, so its memory
    order changes no bit; the C-ordered product and the operand roles of
    ``window @ coin.matrix.T`` fix them (an F-ordered ``out`` would not).
    """
    buf = np.zeros((3, 2 * half + 1), dtype=np.complex128)
    t = len(amplitudes) // 2
    buf[:, half - t:half + t + 1] = amplitudes.T
    product = np.empty((2 * half + 1, 3), dtype=np.complex128)
    yield buf
    coin_t = coin.matrix.T
    for r in radii:
        lo, hi = half - r, half + r + 1
        prod = np.matmul(buf[:, lo:hi].T, coin_t, out=product[:hi - lo])
        buf[0, lo - 1:hi - 1] = prod[:, 0]  # L moves to m - 1
        buf[1, lo:hi] = prod[:, 1]          # S stays
        buf[2, lo + 1:hi + 1] = prod[:, 2]  # R moves to m + 1
        buf[0, hi - 1] = buf[2, lo] = 0
        yield buf


def step(state: WalkState, coin: Coin) -> WalkState:
    """Advance one step: coin on every site, then the conditional shift."""
    return evolve(state, coin, 1)


def evolve(state: WalkState, coin: Coin, steps: int) -> WalkState:
    """Apply ``steps`` walk steps.

    The walk runs in one zeroed ``(3, 2T + 1)`` buffer, T = ``state.time +
    steps``, stepped in place over the support window [-t, t] at each time
    t; the result holds a read-only C-ordered copy of its transpose.
    """
    end = state.time + _count(steps, "step count")
    *_, buf = _walk(state.amplitudes, coin, range(state.time, end), end)
    return WalkState(end, buf.T)


def probability_distribution(state: WalkState) -> ProbabilityDistribution:
    """Trace out the coin: p(m) = |psi_L|^2 + |psi_S|^2 + |psi_R|^2."""
    p = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    return ProbabilityDistribution(state.time, -state.time, p)


def peak_positions(dist: ProbabilityDistribution) -> tuple[int | None, int | None]:
    """Sites of the distribution maxima on the m < 0 and m > 0 half-lines.

    Returns (left_peak, right_peak); a side is None when the walker has no
    support there.
    """
    sites = dist.sites
    p = dist.probabilities
    left = right = None
    neg = sites < 0
    pos = sites > 0
    if np.any(neg) and p[neg].max() > 0.0:
        left = int(sites[neg][np.argmax(p[neg])])
    if np.any(pos) and p[pos].max() > 0.0:
        right = int(sites[pos][np.argmax(p[pos])])
    return left, right
