import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import GROVER_BASIS, spectral_coin
from triwalk.coins import (
    _GROVER_PROJECTORS,
    Coin,
    CoinFamily,
    EigenSystem,
    InvariantViolation,
    coin_c1,
    coin_c2,
    eigensystem_of,
    fourier_coin,
    grover_coin,
    permutation_coin,
    reflecting_coin,
    transmitting_coin,
)

EXCHANGE = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)

PI_MATRIX = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
C_MATRIX = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
C_PRIME_MATRIX = np.diag([-1.0, 1.0, -1.0]).astype(complex)


def c1_reference(phi: float) -> np.ndarray:
    """Explicit closed form of the eigenvalue-deformed coin."""
    e = np.exp(2j * phi)
    return np.array(
        [
            [-1 - e, 2 * (1 + e), 5 - e],
            [2 * (1 + e), 2 * (1 - 2 * e), 2 * (1 + e)],
            [5 - e, 2 * (1 + e), -1 - e],
        ]
    ) / 6.0


def c2_reference(rho: float) -> np.ndarray:
    """Explicit closed form of the eigenvector-deformed coin."""
    s = rho * math.sqrt(2.0 * (1.0 - rho * rho))
    return np.array(
        [
            [-rho * rho, s, 1 - rho * rho],
            [s, 2 * rho * rho - 1, s],
            [1 - rho * rho, s, -rho * rho],
        ],
        dtype=complex,
    )


def all_family_coins():
    coins = [grover_coin(), permutation_coin(), reflecting_coin(),
             transmitting_coin()]
    coins += [coin_c1(phi) for phi in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2)]
    coins += [coin_c2(rho) for rho in (0.0, 0.25, 1 / math.sqrt(3), 0.8, 1.0)]
    # Next to the degenerate points.
    coins += [coin_c1(phi) for phi in (1e-9, math.pi - 1e-9)]
    coins += [coin_c2(rho) for rho in (1e-9, 1 - 1e-9)]
    return coins


def closed_form_spectrum(coin: Coin) -> np.ndarray:
    """The eigenvalues a named coin has by construction."""
    if coin.family is CoinFamily.C1:
        return np.array([-np.exp(2j * coin.parameter), -1, 1])
    if coin.family is CoinFamily.PERMUTATION_PI:
        return np.array([1, -1, 1])
    # Grover, reflecting, transmitting and c2 share the Grover spectrum.
    return np.array([-1, -1, 1])


def spectrum_distance(got, expected) -> float:
    """Largest eigenvalue error under the best matching of the two lists."""
    return min(np.max(np.abs(got[list(order)] - expected))
               for order in itertools.permutations(range(3)))


class TestGroverCoin:
    def test_matrix_entries(self):
        m = grover_coin().matrix
        assert_allclose(np.diag(m), np.full(3, -1 / 3), atol=1e-15)
        off = m[~np.eye(3, dtype=bool)]
        assert_allclose(off, np.full(6, 2 / 3), atol=1e-15)

    def test_self_inverse(self):
        m = grover_coin().matrix
        assert_allclose(m @ m, np.eye(3), atol=1e-15)

    def test_equals_family_members(self):
        g = grover_coin().matrix
        assert np.max(np.abs(coin_c1(0.0).matrix - g)) < 1e-12
        assert np.max(np.abs(coin_c2(1 / math.sqrt(3)).matrix - g)) < 1e-12


class TestGroverEigensystem:
    # The Grover projectors that coin_c1 is built from, in closed form.
    def test_read_only(self):
        assert _GROVER_PROJECTORS.shape == (3, 3, 3)
        assert _GROVER_PROJECTORS.dtype == np.complex128
        assert not _GROVER_PROJECTORS.flags.writeable
        with pytest.raises(ValueError):
            _GROVER_PROJECTORS[0, 0, 0] = 0.0

    def test_hermitian_idempotent_orthogonal(self):
        for i, p in enumerate(_GROVER_PROJECTORS):
            assert np.max(np.abs(p - p.conj().T)) == 0.0
            for j, q in enumerate(_GROVER_PROJECTORS):
                expected = p if i == j else np.zeros((3, 3))
                assert np.max(np.abs(p @ q - expected)) < 1e-15

    def test_eigenvalues(self):
        # P_j projects onto the eigenspace of (-1, -1, 1)[j].
        g = grover_coin().matrix
        for lam, p in zip((-1.0, -1.0, 1.0), _GROVER_PROJECTORS):
            assert np.max(np.abs(g @ p - lam * p)) < 1e-15

    def test_v3_is_fixed_point(self):
        # P3 = v3 v3^dag with v3 = (1, 1, 1)/sqrt 3.
        assert np.max(np.abs(_GROVER_PROJECTORS[2] - 1.0 / 3.0)) < 1e-15

    def test_spectral_identity(self):
        p1, p2, p3 = _GROVER_PROJECTORS
        assert np.max(np.abs(-p1 - p2 + p3 - grover_coin().matrix)) < 1e-15

    def test_projector_completeness(self):
        total = _GROVER_PROJECTORS.sum(axis=0)
        assert np.max(np.abs(total - np.eye(3))) < 1e-15


class TestCoinC1:
    def test_phi_zero_is_grover(self):
        assert np.max(np.abs(coin_c1(0.0).matrix - grover_coin().matrix)) < 1e-12

    def test_phi_half_pi_is_permutation(self):
        assert np.max(np.abs(coin_c1(math.pi / 2).matrix - PI_MATRIX)) < 1e-12

    def test_phi_quarter_pi_corner_entry(self):
        # exp(i pi/2) = i in the closed form gives (-1 - i)/6 at the corner
        assert abs(coin_c1(math.pi / 4).matrix[0, 0] - (-1 - 1j) / 6) < 1e-12

    @pytest.mark.parametrize("phi", [0.0, 0.2, 0.7, math.pi / 3, 1.5])
    def test_matches_closed_form(self, phi):
        assert_allclose(coin_c1(phi).matrix, c1_reference(phi), atol=1e-12)

    def test_parameter_reduced_mod_pi(self):
        coin = coin_c1(0.4 + math.pi)
        assert coin.parameter == pytest.approx(0.4)
        assert_allclose(coin.matrix, coin_c1(0.4).matrix, atol=1e-12)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, phi):
        with pytest.raises(ValueError):
            coin_c1(phi)


class TestCoinC2:
    def test_rho_zero(self):
        assert np.max(np.abs(coin_c2(0.0).matrix - C_MATRIX)) < 1e-12

    def test_rho_one(self):
        assert np.max(np.abs(coin_c2(1.0).matrix - C_PRIME_MATRIX)) < 1e-12

    def test_rho_grover_point(self):
        g = grover_coin().matrix
        assert np.max(np.abs(coin_c2(1 / math.sqrt(3)).matrix - g)) < 1e-12

    @pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_matches_closed_form(self, rho):
        assert_allclose(coin_c2(rho).matrix, c2_reference(rho), atol=1e-12)

    @pytest.mark.parametrize("rho", [-0.01, 1.01, 5.0])
    def test_rejects_out_of_range(self, rho):
        with pytest.raises(ValueError):
            coin_c2(rho)

    @pytest.mark.parametrize("rho", [-0.0, np.float64(-0.0)],
                             ids=["float", "numpy"])
    def test_negative_zero_is_zero(self, rho):
        coin, zero = coin_c2(rho), coin_c2(0.0)
        assert np.array_equal(coin.matrix.view(np.int64),
                              zero.matrix.view(np.int64))
        assert np.float64(coin.parameter).view(np.int64) == \
            np.float64(zero.parameter).view(np.int64)


class TestCoinFromSpectral:
    # Coins from spectral data: the named coins against the oracle's
    # sum_j exp(i theta_j) v_j v_j^dag over the Grover basis, and the
    # EigenSystem record's checks.
    def test_grover_phases(self):
        coin = Coin(spectral_coin(GROVER_BASIS, (math.pi, math.pi, 0.0)))
        assert_allclose(coin.matrix, grover_coin().matrix, atol=1e-12)

    @pytest.mark.parametrize("phi", [0.3, 1.0, 1.4])
    def test_c1_structure(self, phi):
        expected = spectral_coin(GROVER_BASIS, (math.pi + 2 * phi, math.pi, 0.0))
        assert_allclose(coin_c1(phi).matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("lam, vecs, error", [
        ([1, 1, 1], np.eye(3)[:, [0, 0, 2]], InvariantViolation),
        ([1, 1.5, 1], np.eye(3), InvariantViolation),
        ([1, 1], np.eye(3), ValueError),
        ([1, 1, 1], np.eye(3)[:, :2], ValueError),
    ], ids=["non-orthonormal", "off-circle", "two-eigenvalues", "3x2-basis"])
    def test_invalid_eigensystem_rejected(self, lam, vecs, error):
        with pytest.raises(error):
            EigenSystem(np.array(lam, dtype=complex), vecs)


class TestEigensystemOf:
    def test_grover_eigenvalues(self):
        es = eigensystem_of(grover_coin())
        assert_allclose(sorted(es.eigenvalues.real), [-1, -1, 1], atol=1e-12)

    def test_identity_coin(self):
        es = eigensystem_of(Coin(np.eye(3)))
        assert_allclose(es.eigenvalues, [1, 1, 1], atol=1e-12)

    def test_c2_spectrum_is_rho_independent(self):
        for rho in np.linspace(0.0, 1.0, 11):
            es = eigensystem_of(coin_c2(rho))
            assert_allclose(sorted(es.eigenvalues.real), [-1, -1, 1],
                            atol=1e-10)

    @pytest.mark.parametrize("coin", [fourier_coin(),
                                      Coin(grover_coin().matrix),
                                      Coin(np.diag([1, 1j, -1j]))])
    def test_matches_numpy_eigenvalues(self, coin):
        # Independent reference: LAPACK general eigensolver on the same matrix.
        expected = np.sort_complex(np.linalg.eigvals(coin.matrix))
        got = np.sort_complex(eigensystem_of(coin).eigenvalues)
        assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("coin", all_family_coins())
    def test_reconstruction(self, coin):
        es = eigensystem_of(coin)
        rebuilt = spectral_coin(es.eigenvectors, np.angle(es.eigenvalues))
        assert np.max(np.abs(rebuilt - coin.matrix)) < 1e-10
        gram = es.eigenvectors.conj().T @ es.eigenvectors
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        assert spectrum_distance(es.eigenvalues,
                                 closed_form_spectrum(coin)) < 1e-12

    @pytest.mark.parametrize("coin", all_family_coins())
    def test_family_label_does_not_change_the_method(self, coin):
        named, custom = eigensystem_of(coin), eigensystem_of(Coin(coin.matrix))
        assert np.array_equal(named.eigenvalues, custom.eigenvalues)
        assert np.array_equal(named.eigenvectors, custom.eigenvectors)

    def test_reconstruction_of_custom_degenerate(self):
        # Degenerate eigenvalues through the numeric path: a degenerate pair,
        # a triple, and a pair split by an eigenphase gap of 1e-9.
        near = spectral_coin(GROVER_BASIS, (0.3, 0.3 + 1e-9, 2.0))
        for matrix in (grover_coin().matrix, np.eye(3), near):
            es = eigensystem_of(Coin(matrix))
            rebuilt = spectral_coin(es.eigenvectors, np.angle(es.eigenvalues))
            assert np.max(np.abs(rebuilt - matrix)) < 1e-10
            gram = es.eigenvectors.conj().T @ es.eigenvectors
            assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_spectral_round_trip(self):
        for coin in (grover_coin(), coin_c1(0.8), coin_c2(0.6), fourier_coin()):
            es = eigensystem_of(coin)
            rebuilt = spectral_coin(es.eigenvectors, np.angle(es.eigenvalues))
            assert np.max(np.abs(rebuilt - coin.matrix)) < 1e-10


class TestCoinInvariants:
    @pytest.mark.parametrize("coin", all_family_coins())
    def test_unitarity(self, coin):
        assert np.max(np.abs(coin.matrix @ coin.matrix.conj().T - np.eye(3))) \
            < 1e-12

    @pytest.mark.parametrize("coin", all_family_coins())
    def test_left_right_symmetry(self, coin):
        commutator = coin.matrix @ EXCHANGE - EXCHANGE @ coin.matrix
        assert np.max(np.abs(commutator)) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(InvariantViolation):
            Coin(np.ones((3, 3)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            Coin(np.eye(2))

    def test_family_must_be_a_coin_family(self):
        # A member's value is stored as the member, which the JSON text
        # reads; anything else is refused.
        coin = Coin(grover_coin().matrix, "grover")
        assert coin.family is CoinFamily.GROVER
        assert json.loads(coin.to_json())["family"] == "grover"
        for bad in ("nonsense", None, 1):
            with pytest.raises(ValueError, match="is not a valid CoinFamily"):
                Coin(grover_coin().matrix, bad)

    def test_matrix_is_read_only(self):
        coin = grover_coin()
        with pytest.raises(ValueError):
            coin.matrix[0, 0] = 0.0

    def test_eigenvalues_on_unit_circle(self):
        for coin in all_family_coins():
            es = eigensystem_of(coin)
            assert np.max(np.abs(np.abs(es.eigenvalues) - 1.0)) < 1e-12


class TestCoinSerialization:
    @pytest.mark.parametrize("coin", [grover_coin(), coin_c1(0.62),
                                      coin_c2(0.37), fourier_coin(),
                                      permutation_coin(), reflecting_coin(),
                                      transmitting_coin()])
    def test_json_round_trip(self, coin):
        loaded = Coin.from_json(coin.to_json())
        assert loaded.family is coin.family
        assert loaded.parameter == coin.parameter
        assert np.array_equal(loaded.matrix, coin.matrix)

    def test_c1_parameter_reduced_on_load(self):
        # A c1 file may store any phi that gives its matrix; the loaded coin
        # keeps phi mod pi, as coin_c1 does.
        text = Coin(coin_c1(-0.5).matrix, CoinFamily.C1, -0.5).to_json()
        assert Coin.from_json(text).parameter == coin_c1(-0.5).parameter

    def test_json_schema(self):
        data = json.loads(coin_c2(0.5).to_json())
        assert set(data) == {"family", "parameter", "matrix"}
        assert data["family"] == "c2"
        assert len(data["matrix"]) == 9
        assert all(len(entry) == 2 for entry in data["matrix"])

    SCHEMA = "coin JSON must be an object with a family"

    @pytest.mark.parametrize("family,parameter", [
        ("c1", "x"), ("c1", "0.5"), ("c2", "0.5"), ("c1", True),
        ("c2", False), ("c1", [0.5]), ("c2", {"rho": 0.5}),
    ])
    def test_parameter_must_be_a_json_number(self, family, parameter):
        data = json.loads(coin_c1(0.5).to_json())
        text = json.dumps({**data, "family": family, "parameter": parameter})
        with pytest.raises(ValueError, match=self.SCHEMA):
            Coin.from_json(text)

    def test_integer_parameter_accepted(self):
        data = json.loads(coin_c2(1.0).to_json())
        coin = Coin.from_json(json.dumps({**data, "parameter": 1}))
        assert coin.parameter == 1.0

    def test_constructor_range_error_kept(self):
        data = json.loads(coin_c2(0.5).to_json())
        with pytest.raises(ValueError, match=r"^rho must lie in \[0, 1\], got 2.0$"):
            Coin.from_json(json.dumps({**data, "parameter": 2}))

    @pytest.mark.parametrize("family, bad, message", [
        ("c1", math.nan, r"^phi must be finite, got nan$"),
        ("c2", math.inf, r"^rho must lie in \[0, 1\], got inf$"),
        ("custom", math.nan, "^" + SCHEMA),
        ("grover", -math.inf, "^" + SCHEMA),
    ])
    def test_non_finite_parameter_keeps_its_message(self, family, bad,
                                                    message):
        # json.loads reads the literals NaN and Infinity.  The family's
        # constructor, or the schema, refuses them before Coin's own check.
        data = json.loads(coin_c2(0.5).to_json())
        text = json.dumps({**data, "family": family, "parameter": bad})
        with pytest.raises(ValueError, match=message):
            Coin.from_json(text)
