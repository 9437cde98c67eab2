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

Every constructor returns an immutable, unitarity-checked :class:`Coin`.
eigensystem_of() decomposes any coin, named or custom, by the same numeric
method into its eigenvalues, in eigenphase order, and an orthonormal
eigenbasis, returned as two plain arrays.  The package's records
render their CSV and JSON text with the private helpers here; they return
text and open no file.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvariantViolation",
    "CoinFamily",
    "Coin",
    "grover_coin",
    "permutation_coin",
    "reflecting_coin",
    "transmitting_coin",
    "fourier_coin",
    "coin_c1",
    "coin_c2",
    "eigensystem_of",
]

# Entrywise tolerance for matrices built from closed forms.
UNITARITY_TOL = 1e-12


def _freeze(record, name: str, dtype, shape=None) -> np.ndarray:
    """Set field ``name`` to a read-only C-ordered ``dtype`` copy; return it.

    This is every record's array contract: the copy must be finite, and of
    ``shape`` when one is given.  A NaN, an infinity or another shape is
    refused with a ``ValueError``.
    """
    value = np.array(getattr(record, name), dtype=dtype, order="C")
    # "coin matrix ...": the message the CLI prints for a coin file.
    label = f"{type(record).__name__.lower()} {name}"
    if shape is not None and value.shape != shape:
        raise ValueError(f"{label} needs shape {shape}, got {value.shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{label} contains non-finite entries")
    value.setflags(write=False)
    object.__setattr__(record, name, value)
    return value


def _finite(record, name: str, real: bool = True) -> None:
    """Refuse a NaN or an infinity in scalar field ``name`` by ``_freeze``'s
    rule, with a ``ValueError``; ``None`` passes.  A ``real`` field refuses
    anything but a real number too: a complex value, a bool, a string."""
    value = getattr(record, name)
    if value is None:
        return
    label = f"{type(record).__name__.lower()} {name}"
    if real and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{label} must be a real number, got {value!r}")
    if not np.isfinite(value):
        raise ValueError(f"{label} is non-finite: {value!r}")


def _count(value, what: str) -> int:
    """``value`` as an ``int``; anything but a non-negative integer is
    refused, and so is a bool, as ``_is_number`` refuses it."""
    try:
        count = -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = -1
    if count < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return count


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number: no string, and no bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class InvariantViolation(Exception):
    """A numeric invariant (unitarity, orthonormality, norm) failed."""


class CoinFamily(enum.Enum):
    """The constructor a coin came from; each value is its JSON ``family``.

    GROVER is ``grover_coin``, C1 ``coin_c1``, C2 ``coin_c2``,
    PERMUTATION_PI ``permutation_coin``, TRIVIAL_C ``reflecting_coin`` and
    TRIVIAL_C_PRIME ``transmitting_coin``; CUSTOM is any other matrix,
    ``fourier_coin`` included.
    """

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
        Which constructor family the matrix belongs to: a ``CoinFamily`` or
        its value, which is stored as the member; anything else is refused.
    parameter:
        Family parameter (phi in radians for C1, rho in [0, 1] for C2),
        None for parameter-free families; a real number, never NaN or
        infinite, complex or a bool.
    """

    matrix: np.ndarray
    family: CoinFamily = CoinFamily.CUSTOM
    parameter: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", CoinFamily(self.family))
        _finite(self, "parameter")
        m = _freeze(self, "matrix", np.complex128, (3, 3))
        dev = np.max(np.abs(m @ m.conj().T - np.eye(3)))
        if dev > UNITARITY_TOL:
            raise InvariantViolation(
                f"coin matrix is not unitary: max |C C^dag - I| = {dev:.3e}"
            )
        if self.family is not CoinFamily.CUSTOM:
            # Every named family commutes with the L<->R exchange P, and
            # P m P is m reversed along both axes.
            sym = np.max(np.abs(m[::-1, ::-1] - m))
            if sym > UNITARITY_TOL:
                raise InvariantViolation(
                    f"{self.family.value} coin breaks L<->R symmetry by {sym:.3e}"
                )

    def to_json(self) -> str:
        """Serialize as {family, parameter, matrix: [[re, im] x 9 row-major]}."""
        return _to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "Coin":
        """Inverse of :meth:`to_json`; raises ValueError on a malformed record.

        A named family's constructor must give the matrix, entrywise within
        ``UNITARITY_TOL``, at the stored parameter, which it then normalizes.
        """
        try:
            data = json.loads(text)
            family, param = CoinFamily(data["family"]), data["parameter"]
            entries = data["matrix"]
            if len(entries) != 9 or any(
                    len(z) != 2 or not all(map(_is_number, z)) for z in entries):
                raise TypeError("matrix needs 9 [re, im] entries")
            m = np.array([complex(re, im) for re, im in entries])
            if param is not None and not _is_number(param):
                raise TypeError("parameter must be a number or null")
            args = () if param is None else (float(param),)
            # The parameter is checked by its family's constructor below.
            coin = cls(m.reshape(3, 3), family)
            named = _NAMED_COINS.get(family, lambda: coin)(*args)
        except (KeyError, TypeError, OverflowError, RecursionError):
            raise ValueError("coin JSON must be an object with a family, a "
                             "parameter (a number for c1 and c2, else null) "
                             "and 9 [re, im] entries") from None
        if np.max(np.abs(coin.matrix - named.matrix)) > UNITARITY_TOL:
            raise ValueError(f"matrix is not the {family.value} coin at "
                             f"parameter {param!r}")
        return cls(coin.matrix, family, named.parameter)


# CSV cell format of a column, by the type of its first value, else str().
# 17 significant digits read back to the same double; a None column prints
# empty cells.
_CSV_CELLS = {float: "%.17g", type(None): "%.0s"}


def _csv_text(header: str, *columns) -> str:
    """The ``header`` line, then one CSV line per row of ``columns``."""
    cols = [np.asarray(c).tolist() for c in columns]
    row = ",".join(_CSV_CELLS.get(type(c[0]), "%s") for c in cols) + "\n"
    flat = [None] * (len(cols) * len(cols[0]))
    for i, c in enumerate(cols):
        flat[i::len(cols)] = c
    return header + "\n" + row * len(cols[0]) % tuple(flat)


def _encode(obj):
    """``json.dumps`` fallback for numpy values, complex and coins.

    A coin is encoded as its record, its family by value; no other enum is.
    """
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Coin):
        return {"family": obj.family.value, "parameter": obj.parameter,
                "matrix": obj.matrix.ravel()}
    raise TypeError(f"cannot encode {type(obj).__name__} as JSON")


# JSON text of a record, with the package's values encoded by _encode; a
# NaN or an infinity, which JSON cannot hold, raises ValueError.
_to_json = functools.partial(json.dumps, default=_encode, allow_nan=False)


def grover_coin() -> Coin:
    """The 3x3 Grover coin: diagonal entries -1/3, off-diagonal 2/3."""
    m = (2.0 * np.ones((3, 3)) - 3.0 * np.eye(3)) / 3.0
    return Coin(m, CoinFamily.GROVER)


# Rank-one projectors v v^dag of the Grover eigenbasis, for the eigenvalues
# (-1, -1, 1) in that order; coin_c1 turns the phase of the first.
_GROVER_PROJECTORS = np.stack([np.outer(v, v.conj()) for v in np.array([
    np.array([1.0, -2.0, 1.0]) / math.sqrt(6.0),
    np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0),
    np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)], dtype=np.complex128)])
_GROVER_PROJECTORS.setflags(write=False)


def permutation_coin() -> Coin:
    """Coin that swaps L and R and fixes S; the walk bounces in place."""
    return Coin(np.eye(3)[::-1], CoinFamily.PERMUTATION_PI)


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
    p1, p2, p3 = _GROVER_PROJECTORS
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
    rho += 0.0  # -0.0 becomes +0.0, so c2(-0.0) is c2(0.0) bit for bit
    s = math.sqrt(1.0 - rho * rho)
    v1 = np.array([rho / math.sqrt(2.0), -s, rho / math.sqrt(2.0)])
    v2 = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    v3 = np.array([s / math.sqrt(2.0), rho, s / math.sqrt(2.0)])
    m = -np.outer(v1, v1) - np.outer(v2, v2) + np.outer(v3, v3)
    return Coin(m, CoinFamily.C2, float(rho))


# Constructor of each named family; c1 and c2 take the stored parameter.
_NAMED_COINS = {
    CoinFamily.GROVER: grover_coin,
    CoinFamily.C1: coin_c1,
    CoinFamily.C2: coin_c2,
    CoinFamily.PERMUTATION_PI: permutation_coin,
    CoinFamily.TRIVIAL_C: reflecting_coin,
    CoinFamily.TRIVIAL_C_PRIME: transmitting_coin,
}


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


def eigensystem_of(coin: Coin) -> tuple[np.ndarray, np.ndarray]:
    """``(eigenvalues, eigenvectors)`` of a coin, in ascending eigenphase order.

    ``eigenvectors[:, j]`` is the unit eigenvector belonging to
    ``eigenvalues[j]``; both are fresh arrays, as ``np.linalg.eig`` returns
    them.  One numeric method serves every coin, named or custom: the
    batched eig + QR of :func:`_unitary_eig`, whose eigenvalues lie on the
    unit circle and whose basis is orthonormal, sorted by ``np.angle`` with
    a stable argsort.  An eigenvalue at -1 may come first or last, by the
    sign of its rounded imaginary part.  On the named families, degenerate
    points included, it agrees with their closed forms to about 1e-15
    (reconstruction, Gram matrix and eigenvalues).
    """
    lam, vec = _unitary_eig(coin.matrix)
    order = np.argsort(np.angle(lam), kind="stable")
    return lam[order], vec[:, order]
