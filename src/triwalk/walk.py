"""Exact position-space evolution of the three-state walk.

One step applies the coin to the amplitude triple at every site and then
shifts: the L component moves one site left, S stays, R moves one site
right.  After t steps the walker occupies at most the window [-t, t], so the
state is stored densely over exactly that window and grows by one site per
side per step.  No renormalization is ever applied; norm drift is a
monitored invariant, not something to hide.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .coins import Coin

__all__ = [
    "NORM_TOL",
    "WalkState",
    "ProbabilityDistribution",
    "initial_state",
    "step",
    "evolve",
    "probability_distribution",
    "peak_positions",
]

NORM_TOL = 1e-12


@dataclass(frozen=True)
class WalkState:
    """Walker state after ``time`` steps.

    ``amplitudes[i]`` is the (psi_L, psi_S, psi_R) triple at lattice site
    ``i - time``; the array covers the support window [-time, time].
    """

    time: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("time must be non-negative")
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2 * self.time + 1, 3):
            raise ValueError(
                f"state at t={self.time} needs shape {(2 * self.time + 1, 3)}, "
                f"got {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def origin_offset(self) -> int:
        """Lattice index of the first stored site."""
        return -self.time

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.time, self.time + 1)

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
        p = np.array(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must be a non-empty 1-d sequence")
        if np.min(p) < -NORM_TOL:
            raise ValueError("probabilities must be non-negative")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @property
    def m_max(self) -> int:
        return self.m_min + len(self.probabilities) - 1

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.m_min, self.m_max + 1)

    def total(self) -> float:
        return float(self.probabilities.sum())

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("m,p\n")
            for m, p in zip(self.sites, self.probabilities):
                fh.write(f"{m},{p:.17g}\n")

    def to_json(self) -> str:
        return json.dumps(
            {
                "time": self.time,
                "m_min": int(self.m_min),
                "m_max": int(self.m_max),
                "p": [float(p) for p in self.probabilities],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ProbabilityDistribution":
        data = json.loads(text)
        return cls(int(data["time"]), int(data["m_min"]), np.array(data["p"]))


def initial_state(psi_c) -> WalkState:
    """Walker at the origin with coin state ``psi_c`` (must be normalized)."""
    psi = np.asarray(psi_c, dtype=np.complex128)
    if psi.shape != (3,):
        raise ValueError("initial coin state must have three components")
    norm = math.sqrt(float(np.sum(np.abs(psi) ** 2)))
    if not abs(norm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
        raise ValueError(f"initial coin state norm is {norm!r}, expected 1")
    return WalkState(0, psi[None, :])


def step(state: WalkState, coin: Coin) -> WalkState:
    """Advance one step: coin on every site, then the conditional shift."""
    # Row i of the result is C @ psi(site i).
    mixed = state.amplitudes @ coin.matrix.T
    n = mixed.shape[0]
    out = np.zeros((n + 2, 3), dtype=np.complex128)
    out[:n, 0] = mixed[:, 0]       # L moves to m - 1
    out[1:n + 1, 1] = mixed[:, 1]  # S stays
    out[2:, 2] = mixed[:, 2]       # R moves to m + 1
    return WalkState(state.time + 1, out)


def evolve(state: WalkState, coin: Coin, steps: int) -> WalkState:
    """Apply ``steps`` walk steps."""
    if steps < 0:
        raise ValueError("step count must be non-negative")
    for _ in range(steps):
        state = step(state, coin)
    return state


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
