"""Exact position-space evolution of the three-state walk.

One step applies the coin to the amplitude triple at every site and then
shifts: the L component moves one site left, S stays, R moves one site
right.  After t steps the walker occupies at most the window [-t, t], and a
``WalkState`` stores exactly that window.  A walk steps between two
component-major buffers wide enough for its last step: each step's coin
product is written straight into its shifted place in the other buffer
(see ``_walk``).  A complex walk, whose product comes from BLAS, takes
it as a fresh C-ordered array and copies it over, so that its bits stay
those of the C-ordered product.  A walk whose coin and starting
amplitudes are real (Grover, every c2, the permutation coin, the state
(1, -1, 1)/sqrt(3)) stays real, so it steps in ``float64`` with the bits
of the complex product.  No renormalization is ever applied; norm drift
is a monitored invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coins import Coin, _count, _csv_text, _freeze, _to_json

__all__ = [
    "WalkState",
    "ProbabilityDistribution",
    "initial_state",
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
        object.__setattr__(self, "time", _count(self.time, "time"))
        _freeze(self, "amplitudes", np.complex128, (2 * self.time + 1, 3))

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def site_amplitudes(self, m: int) -> np.ndarray:
        """Amplitude triple at lattice site m (zero outside the window)."""
        if abs(m) > self.time:
            return np.zeros(3, dtype=np.complex128)
        return self.amplitudes[m + self.time]


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Position distribution: ``probabilities[i]`` is p(i - time, time)."""

    time: int
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "time", _count(self.time, "time"))
        p = _freeze(self, "probabilities", float, (2 * self.time + 1,))
        if np.min(p) < -NORM_TOL:
            raise ValueError("probabilities must be non-negative")

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.time, self.time + 1)

    def to_csv(self) -> str:
        return _csv_text("m,p", self.sites, self.probabilities)

    def to_json(self) -> str:
        return _to_json({"time": self.time, "m_min": -self.time,
                         "m_max": self.time, "p": self.probabilities})


def initial_state(psi_c) -> WalkState:
    """Walker at the origin with coin state ``psi_c`` (must be normalized).

    ``psi_c`` becomes the one row of a time-0 ``WalkState``, which refuses
    anything but three finite components; a norm further than ``NORM_TOL``
    from 1 is refused here.
    """
    state = WalkState(0, np.asarray(psi_c)[None])
    norm = math.sqrt(state.norm_squared())
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"initial coin state norm is {norm!r}, expected 1")
    return state


def _walk(amplitudes: np.ndarray, coin: Coin, radii, half: int):
    """Step between two buffers; yield the current one first and after each.

    Two zeroed ``(3, 2 * half + 1)`` buffers, kept as one ``(2, 3, width)``
    array, take turns.  Row j of a buffer holds component j (L, S, R) at
    site ``column - half``; the first starts with ``amplitudes``, a window
    centred on the origin.  For each radius r, the sites |m| <= r of the
    current buffer get the coin as one matmul of the window's column-major
    view, written into the other buffer through its ``shifted`` view.
    Entry (m, j) of that view is ``buffer[j, m + j]``, so product row m
    lands in ``shifted[m + lo - 1]``: L one site left, S in place and R one
    site right.  ``half`` must exceed every radius; a radius below the
    support leaves the sites beyond it stale.

    A step writes every cell of the next support window but six, and those
    are still +0.0: the buffer being written holds the state of two steps
    earlier, whose support is two sites narrower.  In the shrinking half of
    a light cone they lie outside the next window, like the stale sites.

    When neither the coin nor ``amplitudes`` has a nonzero imaginary part,
    every amplitude stays real, so the buffers are ``float64`` and the
    operand is the real view of ``coin.matrix.T``.  That view is strided in
    both axes, so numpy's own matmul loop runs instead of BLAS, whatever
    the ``out``.  Each entry it computes is the k-ordered multiply-add chain
    that is the real part of the complex product, whose imaginary terms add
    exact zeros.  So the bits are kept, up to the sign of a zero amplitude;
    ``tests/test_walk.py`` pins this against the complex product.

    A complex walk runs through BLAS ``zgemm``, which packs the window
    operand, so its memory order changes no bit.  A strided ``out`` would:
    numpy hands it to the transposed product, whose bits differ.  So a
    complex step takes the product as a fresh C-ordered array and copies
    it into ``shifted`` in one strided assignment.
    """
    coin_t, amps = coin.matrix.T, amplitudes.T
    real = not (coin_t.imag.any() or amps.imag.any())
    coin_t, amps = (coin_t.real, amps.real) if real else (coin_t, amps)
    bufs = np.zeros((2, 3, 2 * half + 1), dtype=amps.dtype)
    t = len(amplitudes) // 2
    bufs[0, :, half - t:half + t + 1] = amps
    shifted = [np.ndarray((max(2 * half - 1, 0), 3), b.dtype, b, strides=(
        b.itemsize, b.strides[0] + b.itemsize)) for b in bufs]
    yield bufs[0]
    for i, r in enumerate(radii):
        lo, hi = half - r, half + r + 1
        window = bufs[i % 2, :, lo:hi].T
        out = shifted[1 - i % 2][lo - 1:hi - 1]
        if real:
            np.matmul(window, coin_t, out=out)
        else:
            out[...] = window @ coin_t
        yield bufs[1 - i % 2]


def evolve(state: WalkState, coin: Coin, steps: int) -> WalkState:
    """Apply ``steps`` walk steps.

    The walk steps between two zeroed ``(3, 2T + 1)`` buffers, T =
    ``state.time + steps``, over the support window [-t, t] at each time t;
    the result holds a read-only C-ordered copy of the last one's transpose.
    """
    end = state.time + _count(steps, "step count")
    *_, buf = _walk(state.amplitudes, coin, range(state.time, end), end)
    return WalkState(end, buf.T)


def probability_distribution(state: WalkState) -> ProbabilityDistribution:
    """Trace out the coin: p(m) = |psi_L|^2 + |psi_S|^2 + |psi_R|^2."""
    p = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    return ProbabilityDistribution(state.time, p)


def peak_positions(dist: ProbabilityDistribution) -> tuple[int | None, int | None]:
    """Sites of the distribution maxima on the m < 0 and m > 0 half-lines.

    Returns (left_peak, right_peak); a side is None when the walker has no
    support there.  Index i of the probabilities p is site i - T, so
    ``p[:T]`` is the left half-line and ``p[T + 1:]`` starts at site 1.
    """
    t, p = dist.time, dist.probabilities
    return tuple(int(np.argmax(side)) + offset
                 if side.max(initial=0.0) > 0.0 else None
                 for side, offset in ((p[:t], -t), (p[t + 1:], 1)))
