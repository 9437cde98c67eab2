"""Independent reference implementations used to pin expected values.

Nothing here may call into the package's evolution or spectral code paths;
the point is that these computations can disagree with the implementation
under test.  The seeded random coins and states that the test modules share
live here too, so that no test module imports another for its inputs.
"""

import math

import numpy as np


# The Grover coin's orthonormal eigenbasis, one vector per column, for the
# eigenvalues (-1, -1, 1): (1, -2, 1)/sqrt 6, (1, 0, -1)/sqrt 2, (1, 1, 1)/sqrt 3.
GROVER_BASIS = np.column_stack([np.array([1.0, -2.0, 1.0]) / math.sqrt(6.0),
                                np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0),
                                np.full(3, 1.0 / math.sqrt(3.0))])


def spectral_coin(vectors, phases) -> np.ndarray:
    """sum_j exp(i theta_j) v_j v_j^dag over the columns v_j of ``vectors``.

    theta_j is ``phases[j]``; the sum is unitary when the columns are
    orthonormal.
    """
    v = np.asarray(vectors, dtype=complex)
    return (v * np.exp(1j * np.asarray(phases, dtype=float))) @ v.conj().T


def haar_unitary(seed: int) -> np.ndarray:
    """A Haar-random 3x3 unitary, seeded."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    return q * np.exp(-1j * np.angle(np.diag(r)))[None, :]


def random_state(seed: int) -> np.ndarray:
    """A random unit coin state, seeded."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    return psi / np.linalg.norm(psi)


def real_orthogonal(seed: int, det: int) -> np.ndarray:
    """A random real orthogonal 3x3 matrix with determinant ``det`` (+-1), seeded."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) * det < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_real_state(seed: int) -> np.ndarray:
    """A random real unit coin state, seeded."""
    psi = np.random.default_rng(seed).normal(size=3)
    return psi / np.linalg.norm(psi)


def propagators(matrix: np.ndarray, ks) -> np.ndarray:
    """U(k) = diag(exp(-ik), 1, exp(ik)) . C for every k, shape (n, 3, 3)."""
    ks = np.asarray(ks, dtype=float)
    phase = np.stack([np.exp(-1j * ks), np.ones_like(ks), np.exp(1j * ks)],
                     axis=1)
    return phase[:, :, None] * matrix[None, :, :]


def flat_band_defect(coin_matrix: np.ndarray) -> float:
    """|C00| + |C22|, which vanishes exactly when every band is flat.

    U(k) = diag(exp(-ik), 1, exp(ik)) C has det U = det C for every k, and
    trace a(k) = exp(-ik) C00 + C11 + exp(ik) C22.  Its characteristic
    polynomial lambda^3 - a lambda^2 + det C conj(a) lambda - det C depends
    on k only through a(k), so the eigenphases are all constant in k exactly
    when the Fourier coefficients C00 and C22 of a(k) both vanish.
    """
    return float(abs(coin_matrix[0, 0]) + abs(coin_matrix[2, 2]))


def flat_cubic_residual(coin_matrix: np.ndarray, lam: complex) -> float:
    """|lam^3 - C11 lam^2 + d conj(C11) lam - d| with d = det C.

    The characteristic polynomial of U(k) = diag(exp(-ik), 1, exp(ik)) C is
    that k-free cubic plus exp(-ik) (d conj(C22) - C00 lam) lam and
    exp(ik) (d conj(C00) - C22 lam) lam, so a unit lam is an eigenvalue at
    every k exactly when the cubic and both corner conditions vanish.  When
    C00 = C22 = 0 every band is flat and the cubic alone decides.
    """
    c = np.asarray(coin_matrix, dtype=complex)
    d = np.linalg.det(c)
    return float(abs(lam ** 3 - c[1, 1] * lam ** 2
                     + d * np.conj(c[1, 1]) * lam - d))


def flat_eigenvalue(coin_matrix: np.ndarray) -> complex | None:
    """The exact flat eigenvalue of a coin with C00 != 0, or None if none.

    The corner condition C00 lam = d conj(C22) (see ``flat_cubic_residual``)
    leaves one candidate; it is flat when C22 lam = d conj(C00) and the
    cubic hold to 1e-9.  Ill-conditioned as C00 -> 0, so keep |C00| well
    above rounding and check near-all-flat coins by the cubic alone.
    """
    c = np.asarray(coin_matrix, dtype=complex)
    d = np.linalg.det(c)
    lam = complex(d * np.conj(c[2, 2]) / c[0, 0])
    if max(abs(c[2, 2] * lam - d * np.conj(c[0, 0])),
           flat_cubic_residual(c, lam)) < 1e-9:
        return lam
    return None


# |1 - |alpha| - r| at or below which ``flat_peak_velocity`` takes the two
# dispersive bands to touch: about 45 rounding units of 1.
TOUCHING_TOL = 1e-14


def flat_band_law(coin_matrix: np.ndarray) -> tuple[float, float]:
    """(alpha, r) of the two bands beside a coin's one flat band.

    With lambda_f = ``flat_eigenvalue``, d = det C and theta = arg(d /
    lambda_f), the other two eigenvalues of U(k) multiply to d / lambda_f
    and add up to a(k) - lambda_f, so they are exp(i (theta/2 +- chi(k)))
    with cos chi = alpha + r cos(k + arg g), where h = exp(-i theta / 2),
    g = h C22, alpha = Re(h (C11 - lambda_f)) / 2 and r = |C22|; unitarity
    makes h C00 = conj(g) and h (C11 - lambda_f) real.  The bands touch
    where |alpha| + r = 1.  Raises ValueError if there is no flat band.
    """
    c = np.asarray(coin_matrix, dtype=complex)
    lam = flat_eigenvalue(c)
    if lam is None:
        raise ValueError("coin has no flat band")
    h = np.exp(-0.5j * np.angle(np.linalg.det(c) / lam))
    return float((h * (c[1, 1] - lam)).real / 2.0), float(abs(c[2, 2]))


def flat_peak_velocity(coin_matrix: np.ndarray) -> float:
    """Peak speed of the walk of a coin with one flat band, in closed form.

    By ``flat_band_law`` the two other bands have slope
    +-r sin(k + arg g) / sin chi.  Its extremes lie where u = cos(k + arg g)
    solves alpha r u^2 + (alpha^2 + r^2 - 1) u + alpha r = 0, and there
    v^2 = r^2 (1 + alpha^2 - r^2 + D) / (1 - alpha^2 - r^2 + D) with
    D = sqrt((1 - (alpha + r)^2) (1 - (alpha - r)^2)).  Where the bands
    touch, D = 0 and v = sqrt(r): Grover gives 1/sqrt(3), c2(rho) gives rho.

    Tolerance.  With eps = 1 - |alpha| - r, D is the square root of a
    factor of size eps, which alpha and r carry only to rounding.  So
    ``|eps| <= TOUCHING_TOL`` takes the touching branch v = sqrt(r): exact
    to rounding (measured 4.1e-15) where the bands touch, and within
    about sqrt(eps) <= 1e-7 where they are that close without touching.
    Elsewhere v errs by at most about 2e-15 + 2e-16 / sqrt(eps): rounding
    away from a touching, 1e-12 at c1(1e-4).
    """
    alpha, r = flat_band_law(coin_matrix)
    if abs(1.0 - abs(alpha) - r) <= TOUCHING_TOL:
        return math.sqrt(r)
    d = math.sqrt((1.0 - (alpha + r) ** 2) * (1.0 - (alpha - r) ** 2))
    return r * math.sqrt((1.0 + alpha * alpha - r * r + d)
                         / (1.0 - alpha * alpha - r * r + d))


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


def fft_evolve(coin_matrix: np.ndarray, psi_c: np.ndarray, t: int,
               n_modes: int) -> np.ndarray:
    """Amplitudes after t steps from the origin, by momentum-mode powers.

    Raises every U(k) on the grid k = 2 pi j / n_modes to the power t, applies
    it to psi_c and inverts with one FFT: the amplitude at site m is
    ``fft[m % n_modes] / n_modes``.  No eigenvectors, so degenerate coins
    need no care; exact (no aliasing) while n_modes >= 2t + 1.  Returns the
    (2t + 1, 3) array whose row i is site i - t.
    """
    if n_modes < 2 * t + 1:
        raise ValueError("n_modes must be at least 2t + 1")
    ks = 2.0 * np.pi * np.arange(n_modes) / n_modes
    modes = np.linalg.matrix_power(propagators(coin_matrix, ks), t) @ psi_c
    amps = np.fft.fft(modes, axis=0) / n_modes
    return amps[np.arange(-t, t + 1) % n_modes]


def flat_band_trapped_probability(coin_matrix: np.ndarray, psi_c: np.ndarray,
                                  n_modes: int = 1024) -> float:
    """Infinite-time averaged origin probability from bound-state projection.

    ``trapped_profile`` at the origin, for a flat band at eigenvalue 1.
    """
    return float(trapped_profile(coin_matrix, psi_c, [0], n_modes)[0])


def trapped_profile(coin_matrix: np.ndarray, psi_c: np.ndarray, sites,
                    n_modes: int = 1024) -> np.ndarray:
    """Infinite-time averaged probability p_inf(m) at each of ``sites``.

    The amplitude at site m after t steps is mean_k exp(-ikm) U(k)^t psi_c
    (see ``fft_evolve``), and only the flat bands survive the time average:
    p_inf(m) = sum over flat lambda of |mean_k exp(-ikm) P_lambda(k) psi_c|^2.
    Projects the initial state onto the k-independent eigenvalue-1
    eigenvector of each momentum propagator and integrates; the midpoint
    rule converges spectrally for this smooth periodic integrand.  Only valid
    for coins whose flat-band eigenvalue is 1 and isolated on the grid: with
    C00 != 0 it is the only flat one (see ``flat_eigenvalue``), so the sum
    has one term, as for Grover and the deformation families.
    """
    ks = 2.0 * np.pi * (np.arange(n_modes) + 0.5) / n_modes
    a = propagators(coin_matrix, ks) - np.eye(3)
    # Null vector of the rank-2 matrix via the bilinear cross product of rows.
    v = np.cross(a[:, 0, :], a[:, 1, :])
    small = np.linalg.norm(v, axis=1) < 1e-12
    if np.any(small):
        v[small] = np.cross(a[small, 0, :], a[small, 2, :])
    v /= np.linalg.norm(v, axis=1)[:, None]
    trapped = (v.conj() @ psi_c)[:, None] * v
    return np.array([np.sum(np.abs((np.exp(-1j * m * ks)[:, None] * trapped)
                                   .mean(axis=0)) ** 2) for m in sites])


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
        slope = hf_slopes(vecs)
        lo, hi = min(lo, float(slope.min())), max(hi, float(slope.max()))
    return lo, hi


def hf_slopes(vecs: np.ndarray) -> np.ndarray:
    """Band slopes |v_R|^2 - |v_L|^2 of eigenvector columns, shape (n, 3).

    ``vecs[i, :, j]`` is an eigenvector of the i-th propagator; each is
    normalized here, so any scaling of the columns gives the same slope.
    """
    weight = np.abs(vecs) ** 2
    weight /= weight.sum(axis=1, keepdims=True)
    return weight[:, 2, :] - weight[:, 0, :]


def weak_limit_moments(coin_matrix: np.ndarray, psi_c: np.ndarray, orders,
                       n_modes: int = 4096) -> list[float]:
    """Moments E[V^n] of the weak limit V of X_t / t from the origin.

    X_t / t converges in law to V, which puts weight |<v_j(k), psi_c>|^2 at
    the group velocity omega_j'(k), averaged over k and summed over the
    bands (Grimmett, Janson and Scudo, Phys. Rev. E 69, 026119, 2004).  The
    slopes are the Hellmann-Feynman ones of ``hf_slopes``; QR makes each
    eigenbasis orthonormal, so the weights sum to 1 even where two bands
    nearly touch.  The midpoint grid misses the touchings at k = 0 and pi,
    where an eigenbasis is arbitrary; the integrand is smooth and periodic,
    so the midpoint rule converges spectrally.
    """
    ks = 2.0 * np.pi * (np.arange(n_modes) + 0.5) / n_modes
    _, vecs = np.linalg.eig(propagators(coin_matrix, ks))
    vecs, _ = np.linalg.qr(vecs)
    slope = hf_slopes(vecs)
    weight = np.abs(np.einsum("kij,i->kj", vecs.conj(), psi_c)) ** 2
    return [float(np.mean(np.sum(slope ** n * weight, axis=1)))
            for n in orders]
