"""Coin operators for the three-state walk on the integer line.

All coins are 3x3 unitaries over the coin basis (L, S, R): move left, stay,
move right.  The module provides the Grover coin, the trivial coins it can be
deformed into, and the two one-parameter deformation families that share its
flat-band structure:

- grover_coin(): the 3x3 Grover matrix (diagonal -1/3, off-diagonal 2/3)
- permutation_coin(): swaps L and R, fixes S
- reflecting_coin(): swaps L and R with a sign flip on S
- transmitting_coin(): streams L and R straight through, diag(-1, 1, -1)
- coin_c1(phi): eigenvalue deformation, Grover at phi=0, permutation at pi/2
- coin_c2(rho): eigenvector deformation, reflecting at rho=0, transmitting
  at rho=1, Grover at rho=1/sqrt(3)
- fourier_coin(): 3x3 discrete Fourier matrix, a control coin with no flat band
- coin_from_spectral(): build a custom coin from an eigenbasis and phases

Every constructor returns an immutable, unitarity-checked :class:`Coin`.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "UNITARITY_TOL",
    "DIAGONALIZATION_TOL",
    "InvariantViolation",
    "CoinFamily",
    "Coin",
    "EigenSystem",
    "grover_coin",
    "grover_eigensystem",
    "permutation_coin",
    "reflecting_coin",
    "transmitting_coin",
    "fourier_coin",
    "coin_c1",
    "coin_c2",
    "coin_from_spectral",
    "eigensystem_of",
]

# Entrywise tolerance for matrices built from closed forms.
UNITARITY_TOL = 1e-12
# Entrywise tolerance for numerically diagonalized quantities.
DIAGONALIZATION_TOL = 1e-10

# Exchange of the L and R coin components (parity on the internal space).
_EXCHANGE = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


class InvariantViolation(Exception):
    """A numeric invariant (unitarity, orthonormality, norm) failed."""


class CoinFamily(enum.Enum):
    GROVER = "grover"
    C1 = "c1"
    C2 = "c2"
    PERMUTATION_PI = "permutation_pi"
    TRIVIAL_C = "trivial_c"
    TRIVIAL_C_PRIME = "trivial_c_prime"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Coin:
    """A 3x3 unitary coin operator, immutable after construction.

    Parameters
    ----------
    matrix:
        3x3 complex array, unitary to within ``UNITARITY_TOL``.
    family:
        Which constructor family the matrix belongs to.
    parameter:
        Family parameter (phi in radians for C1, rho in [0, 1] for C2),
        None for parameter-free families.
    """

    matrix: np.ndarray
    family: CoinFamily = CoinFamily.CUSTOM
    parameter: float | None = None

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (3, 3):
            raise ValueError(f"coin matrix must be 3x3, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("coin matrix contains non-finite entries")
        dev = np.max(np.abs(m @ m.conj().T - np.eye(3)))
        if dev > UNITARITY_TOL:
            raise InvariantViolation(
                f"coin matrix is not unitary: max |C C^dag - I| = {dev:.3e}"
            )
        if self.family is not CoinFamily.CUSTOM:
            # Every named family commutes with the L<->R exchange.
            sym = np.max(np.abs(_EXCHANGE @ m @ _EXCHANGE - m))
            if sym > UNITARITY_TOL:
                raise InvariantViolation(
                    f"{self.family.value} coin breaks L<->R symmetry by {sym:.3e}"
                )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def to_json(self) -> str:
        """Serialize as {family, parameter, matrix: [[re, im] x 9 row-major]}."""
        entries = [[float(z.real), float(z.imag)] for z in self.matrix.ravel()]
        return json.dumps(
            {
                "family": self.family.value,
                "parameter": self.parameter,
                "matrix": entries,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Coin":
        data = json.loads(text)
        entries = data["matrix"]
        if len(entries) != 9:
            raise ValueError("coin JSON must carry 9 row-major [re, im] entries")
        m = np.array([complex(re, im) for re, im in entries]).reshape(3, 3)
        param = data.get("parameter")
        family = CoinFamily(data.get("family", "custom"))
        return cls(m, family, None if param is None else float(param))


@dataclass(frozen=True)
class EigenSystem:
    """Orthonormal eigendecomposition of a 3x3 unitary.

    ``eigenvectors[:, j]`` is the unit eigenvector belonging to
    ``eigenvalues[j]``; eigenvalues lie on the unit circle.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        lam = np.array(self.eigenvalues, dtype=np.complex128)
        vec = np.array(self.eigenvectors, dtype=np.complex128)
        if lam.shape != (3,) or vec.shape != (3, 3):
            raise ValueError("eigensystem needs 3 eigenvalues and a 3x3 basis")
        if np.max(np.abs(np.abs(lam) - 1.0)) > UNITARITY_TOL:
            raise InvariantViolation("eigenvalues are not on the unit circle")
        gram = vec.conj().T @ vec
        if np.max(np.abs(gram - np.eye(3))) > UNITARITY_TOL:
            raise InvariantViolation("eigenvectors are not orthonormal")
        lam.setflags(write=False)
        vec.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

    @property
    def phases(self) -> np.ndarray:
        """Eigenphases in (-pi, pi]."""
        return np.angle(self.eigenvalues)

    @property
    def projectors(self) -> np.ndarray:
        """Rank-one projectors P_j = v_j v_j^dag, shape (3, 3, 3)."""
        v = self.eigenvectors
        return np.stack([np.outer(v[:, j], v[:, j].conj()) for j in range(3)])

    def reconstruct(self) -> np.ndarray:
        """Sum of lambda_j P_j; equals the decomposed matrix up to rounding."""
        return (self.eigenvalues[:, None, None] * self.projectors).sum(axis=0)


def grover_coin() -> Coin:
    """The 3x3 Grover coin: diagonal entries -1/3, off-diagonal 2/3."""
    m = (2.0 * np.ones((3, 3)) - 3.0 * np.eye(3)) / 3.0
    return Coin(m, CoinFamily.GROVER)


def grover_eigensystem() -> EigenSystem:
    """Eigenbasis of the Grover coin: eigenvalues (-1, -1, 1)."""
    v1 = np.array([1.0, -2.0, 1.0]) / math.sqrt(6.0)
    v2 = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    v3 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    return EigenSystem(np.array([-1.0, -1.0, 1.0], dtype=complex),
                       np.column_stack([v1, v2, v3]))


def permutation_coin() -> Coin:
    """Coin that swaps L and R and fixes S; the walk bounces in place."""
    return Coin(_EXCHANGE.copy(), CoinFamily.PERMUTATION_PI)


def reflecting_coin() -> Coin:
    """L<->R swap with a sign flip on S; same spectrum as the Grover coin."""
    m = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
    return Coin(m, CoinFamily.TRIVIAL_C)


def transmitting_coin() -> Coin:
    """diag(-1, 1, -1): L and R stream ballistically, S stays put."""
    return Coin(np.diag([-1.0, 1.0, -1.0]), CoinFamily.TRIVIAL_C_PRIME)


def fourier_coin() -> Coin:
    """The 3x3 discrete Fourier coin, a standard control without a flat band."""
    w = np.exp(2j * np.pi / 3.0)
    jk = np.outer(np.arange(3), np.arange(3))
    return Coin(w**jk / math.sqrt(3.0), CoinFamily.CUSTOM)


def _c2_eigenvectors(rho: float) -> np.ndarray:
    s = math.sqrt(1.0 - rho * rho)
    v1 = np.array([rho / math.sqrt(2.0), -s, rho / math.sqrt(2.0)])
    v2 = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    v3 = np.array([s / math.sqrt(2.0), rho, s / math.sqrt(2.0)])
    return np.column_stack([v1, v2, v3])


def coin_c1(phi: float) -> Coin:
    """Eigenvalue deformation of the Grover coin.

    Keeps the Grover eigenbasis and rotates the phase of the first
    eigenvalue: the matrix is ``-exp(2i phi) P1 - P2 + P3``.  phi = 0 gives
    the Grover coin, phi = pi/2 the permutation coin.  The matrix has period
    pi in phi, so the stored parameter is reduced mod pi.

    Parameters
    ----------
    phi:
        Deformation angle in radians; must be finite.
    """
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    phi = phi % math.pi
    es = grover_eigensystem()
    p1, p2, p3 = es.projectors
    m = -np.exp(2j * phi) * p1 - p2 + p3
    return Coin(m, CoinFamily.C1, phi)


def coin_c2(rho: float) -> Coin:
    """Eigenvector deformation of the Grover coin.

    Keeps the Grover spectrum (-1, -1, 1) and slides the first and third
    eigenvectors between those of the reflecting coin (rho = 0) and the
    transmitting coin (rho = 1); rho = 1/sqrt(3) recovers the Grover coin.

    Parameters
    ----------
    rho:
        Coin parameter in [0, 1]; equals the walk's peak velocity.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    vec = _c2_eigenvectors(rho)
    p = np.stack([np.outer(vec[:, j], vec[:, j].conj()) for j in range(3)])
    m = -p[0] - p[1] + p[2]
    return Coin(m, CoinFamily.C2, float(rho))


def coin_from_spectral(eigensystem: EigenSystem,
                       phases: Sequence[float]) -> Coin:
    """Build the unitary sum_j exp(i theta_j) P_j over a given eigenbasis.

    Returns a CUSTOM coin; unitarity follows from the orthonormality of the
    basis, which :class:`EigenSystem` enforces on construction.
    """
    theta = np.asarray(phases, dtype=float)
    if theta.shape != (3,):
        raise ValueError("need exactly three phases")
    if not np.all(np.isfinite(theta)):
        raise ValueError("phases must be finite")
    m = (np.exp(1j * theta)[:, None, None] * eigensystem.projectors).sum(axis=0)
    return Coin(m, CoinFamily.CUSTOM)


def _unitary_eig(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a batch of unitaries.

    ``matrices`` has shape (..., 3, 3); column j of the returned basis
    belongs to eigenvalue j.  Eigenvectors of a normal matrix for distinct
    eigenvalues are orthogonal already, so the QR step only re-orthonormalizes
    within degenerate or nearly degenerate clusters, where LAPACK returns an
    arbitrary, possibly skewed, basis of the eigenspace.  Each column keeps
    its eigenspace, so eigenvalue j still belongs to column j.
    """
    lam, vec = np.linalg.eig(matrices)
    q, _ = np.linalg.qr(vec)
    return lam / np.abs(lam), q


def eigensystem_of(coin: Coin) -> EigenSystem:
    """Eigendecomposition of a coin.

    Named families return their analytic eigensystem, which is exact at the
    degenerate points; CUSTOM coins are diagonalized numerically.
    """
    dev = np.max(np.abs(coin.matrix @ coin.matrix.conj().T - np.eye(3)))
    if dev > DIAGONALIZATION_TOL:
        raise InvariantViolation(
            f"cannot diagonalize a non-unitary coin (deviation {dev:.3e})"
        )
    family = coin.family
    if family is CoinFamily.GROVER:
        return grover_eigensystem()
    if family is CoinFamily.C1:
        base = grover_eigensystem()
        lam = np.array([-np.exp(2j * coin.parameter), -1.0, 1.0])
        return EigenSystem(lam / np.abs(lam), base.eigenvectors)
    if family is CoinFamily.PERMUTATION_PI:
        base = grover_eigensystem()
        return EigenSystem(np.array([1.0, -1.0, 1.0], dtype=complex),
                           base.eigenvectors)
    if family is CoinFamily.C2:
        return EigenSystem(np.array([-1.0, -1.0, 1.0], dtype=complex),
                           _c2_eigenvectors(coin.parameter))
    if family is CoinFamily.TRIVIAL_C:
        return EigenSystem(np.array([-1.0, -1.0, 1.0], dtype=complex),
                           _c2_eigenvectors(0.0))
    if family is CoinFamily.TRIVIAL_C_PRIME:
        return EigenSystem(np.array([-1.0, -1.0, 1.0], dtype=complex),
                           _c2_eigenvectors(1.0))
    lam, vec = _unitary_eig(coin.matrix)
    order = np.argsort(np.angle(lam), kind="stable")
    return EigenSystem(lam[order], vec[:, order])
