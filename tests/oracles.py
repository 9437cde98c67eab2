"""Independent reference implementations used to pin expected values.

Nothing here may call into the package's evolution or spectral code paths;
the point is that these computations can disagree with the implementation
under test.
"""

import math

import numpy as np


def propagators(matrix: np.ndarray, ks) -> np.ndarray:
    """U(k) = diag(exp(-ik), 1, exp(ik)) . C for every k, shape (n, 3, 3)."""
    ks = np.asarray(ks, dtype=float)
    phase = np.stack([np.exp(-1j * ks), np.ones_like(ks), np.exp(1j * ks)],
                     axis=1)
    return phase[:, :, None] * matrix[None, :, :]


def dispersion_analytic(family: str, parameter: float | None, k):
    """Closed-form dispersion (omega1, omega2, omega3) of a named family.

    ``family`` is "grover", "c1" (parameter phi) or "c2" (parameter rho).
    omega1 carries the +arccos sheet, omega2 the -arccos sheet, and the flat
    band omega3 is identically zero.  ``k`` may be a scalar or an array.
    """
    k = np.asarray(k, dtype=float)
    if family == "grover":
        arg = -(2.0 + np.cos(k)) / 3.0
        acos = np.arccos(np.clip(arg, -1.0, 1.0))
        return acos, -acos, np.zeros_like(k)
    if family == "c1":
        phi = float(parameter)
        arg = -(2.0 + np.cos(k)) * math.cos(phi) / 3.0
        acos = np.arccos(np.clip(arg, -1.0, 1.0))
        return phi + acos, phi - acos, np.zeros_like(k)
    if family == "c2":
        rho = float(parameter)
        arg = rho * rho - 1.0 - rho * rho * np.cos(k)
        acos = np.arccos(np.clip(arg, -1.0, 1.0))
        return acos, -acos, np.zeros_like(k)
    raise ValueError(f"no closed-form dispersion for family {family!r}")


def dense_evolve(coin_matrix: np.ndarray, psi_c: np.ndarray, t: int,
                 radius: int) -> np.ndarray:
    """Evolve on a truncated lattice [-radius, radius] by dense matrix powers.

    Returns the (2*radius+1, 3) amplitude array after t steps.  Valid as an
    infinite-line reference whenever t < radius, since the walker moves one
    site per step.
    """
    n = 2 * radius + 1
    dim = 3 * n
    coin_full = np.kron(np.eye(n), coin_matrix)
    shift = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        if i - 1 >= 0:
            shift[3 * (i - 1) + 0, 3 * i + 0] = 1.0
        shift[3 * i + 1, 3 * i + 1] = 1.0
        if i + 1 < n:
            shift[3 * (i + 1) + 2, 3 * i + 2] = 1.0
    u = shift @ coin_full
    vec = np.zeros(dim, dtype=complex)
    vec[3 * radius: 3 * radius + 3] = psi_c
    vec = np.linalg.matrix_power(u, t) @ vec
    return vec.reshape(n, 3)


def fourier_evolve_distribution(coin_matrix: np.ndarray, psi_c: np.ndarray,
                                t: int, n_modes: int = 512) -> dict[int, float]:
    """Position distribution after t steps via momentum-mode powers.

    Each Fourier mode is propagated independently and inverted by a plain
    discrete sum; exact (no aliasing) while n_modes > 2t + 1.
    """
    ks = 2.0 * np.pi * np.arange(n_modes) / n_modes
    modes = np.empty((n_modes, 3), dtype=complex)
    for i, u in enumerate(propagators(coin_matrix, ks)):
        modes[i] = np.linalg.matrix_power(u, t) @ psi_c
    out: dict[int, float] = {}
    for m in range(-t, t + 1):
        amp = (np.exp(-1j * m * ks)[:, None] * modes).mean(axis=0)
        out[m] = float(np.sum(np.abs(amp) ** 2))
    return out


def flat_band_trapped_probability(coin_matrix: np.ndarray, psi_c: np.ndarray,
                                  n_modes: int = 1024) -> float:
    """Infinite-time averaged origin probability from bound-state projection.

    Projects the initial state onto the k-independent eigenvalue-1 eigenvector
    of each momentum propagator and integrates; the midpoint rule converges
    spectrally for this smooth periodic integrand.  Only valid for coins whose
    flat-band eigenvalue is 1 and isolated (the deformation families).
    """
    ks = 2.0 * np.pi * (np.arange(n_modes) + 0.5) / n_modes
    a = propagators(coin_matrix, ks) - np.eye(3)
    # Null vector of the rank-2 matrix via the bilinear cross product of rows.
    v = np.cross(a[:, 0, :], a[:, 1, :])
    small = np.linalg.norm(v, axis=1) < 1e-12
    if np.any(small):
        v[small] = np.cross(a[small, 0, :], a[small, 2, :])
    v /= np.linalg.norm(v, axis=1)[:, None]
    overlaps = v.conj() @ psi_c
    trapped = (overlaps[:, None] * v).mean(axis=0)
    return float(np.sum(np.abs(trapped) ** 2))


def hf_velocity_range(coin_matrix: np.ndarray,
                      n_modes: int = 2 ** 16) -> tuple[float, float]:
    """(min, max) group velocity over a dense momentum grid.

    By the Hellmann-Feynman theorem the band of U(k) = D(k) C through the
    unit eigenvector v has slope |v_R|^2 - |v_L|^2, so every eigenpair of
    every sampled propagator gives an exact velocity; the extremes are read
    off the grid with no tracking or refinement.
    """
    lo, hi = np.inf, -np.inf
    for ks in np.array_split(2.0 * np.pi * np.arange(n_modes) / n_modes, 16):
        _, vecs = np.linalg.eig(propagators(coin_matrix, ks))
        weight = np.abs(vecs) ** 2
        weight /= weight.sum(axis=1, keepdims=True)
        slope = weight[:, 2, :] - weight[:, 0, :]
        lo, hi = min(lo, float(slope.min())), max(hi, float(slope.max()))
    return lo, hi
