import math

import numpy as np
import pytest

import triwalk
from triwalk import coins, localization, spectral, walk
from triwalk.coins import Coin, EigenSystem, grover_coin, grover_eigensystem
from triwalk.localization import LocalizationReport
from triwalk.spectral import DispersionTable
from triwalk.walk import ProbabilityDistribution, WalkState

MODULES = (coins, localization, spectral, walk)


class TestPublicNames:
    def test_package_all_is_module_alls(self):
        names = [n for mod in MODULES for n in mod.__all__] + ["__version__"]
        assert sorted(triwalk.__all__) == sorted(names)
        assert len(set(triwalk.__all__)) == len(triwalk.__all__)
        for name in triwalk.__all__:
            assert hasattr(triwalk, name), name

    def test_constants_are_not_public_names(self):
        # Tolerances and defaults are imported from their modules by name.
        for mod in MODULES:
            assert not [n for n in mod.__all__ if n.isupper()], mod.__name__


def _coin():
    m = grover_coin().matrix.copy()
    return Coin(m), {"matrix": m}


def _eigensystem():
    es = grover_eigensystem()
    lam, vec = es.eigenvalues.copy(), es.eigenvectors.copy()
    return EigenSystem(lam, vec), {"eigenvalues": lam, "eigenvectors": vec}


def _dispersion_table():
    ks = np.arange(16) * (2.0 * math.pi / 16)
    br = np.zeros((3, 16))
    return DispersionTable(ks, br, grover_coin()), {"k_grid": ks,
                                                    "branches": br}


def _dispersion_table_with_eigenvectors():
    _, sources = _dispersion_table()
    vec = np.tile(np.eye(3, dtype=np.complex128), (16, 1, 1))
    return (DispersionTable(sources["k_grid"], sources["branches"],
                            grover_coin(), vec),
            {**sources, "eigenvectors": vec})


def _walk_state():
    amps = np.zeros((3, 3), dtype=np.complex128)
    amps[1, 0] = 1.0
    return WalkState(1, amps), {"amplitudes": amps}


def _distribution():
    p = np.array([0.5, 0.0, 0.5])
    return ProbabilityDistribution(1, -1, p), {"probabilities": p}


def _localization_report():
    s = np.ones(4)
    return (LocalizationReport(s, (1.0, 1.0), 1.0, True, False, None),
            {"series": s})


@pytest.mark.parametrize("build", [
    _coin, _eigensystem, _dispersion_table,
    _dispersion_table_with_eigenvectors, _walk_state, _distribution,
    _localization_report,
], ids=["Coin", "EigenSystem", "DispersionTable",
        "DispersionTable-eigenvectors", "WalkState",
        "ProbabilityDistribution", "LocalizationReport"])
def test_records_store_read_only_copies(build):
    # A record freezes its own copy of each array field, never the caller's.
    record, sources = build()
    for name, source in sources.items():
        stored = getattr(record, name)
        assert source.flags.writeable, name
        assert not stored.flags.writeable, name
        assert stored is not source, name
        np.testing.assert_array_equal(stored, source)
