
import ast
import dataclasses
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triwalk
from triwalk import coins, localization, spectral, walk
from triwalk.coins import Coin, CoinFamily, grover_coin
from triwalk.localization import LocalizationReport
from triwalk.spectral import DispersionTable, PeakVelocityResult
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


def _dispersion_table():
    br = np.zeros((3, 16))
    return DispersionTable(br, grover_coin()), {"branches": br}


def _dispersion_table_with_eigenvectors():
    _, sources = _dispersion_table()
    vec = np.tile(np.eye(3, dtype=np.complex128), (16, 1, 1))
    return (DispersionTable(sources["branches"], grover_coin(), vec),
            {**sources, "eigenvectors": vec})


def _walk_state():
    amps = np.zeros((3, 3), dtype=np.complex128)
    amps[1, 0] = 1.0
    return WalkState(1, amps), {"amplitudes": amps}


def _distribution():
    p = np.array([0.5, 0.0, 0.5])
    return ProbabilityDistribution(1, p), {"probabilities": p}


def _localization_report():
    s = np.ones(200)
    return LocalizationReport(s, None), {"series": s}


# Each builder returns a record and the arrays it was built from, by field.
RECORDS = pytest.mark.parametrize("build", [
    _coin, _dispersion_table, _dispersion_table_with_eigenvectors,
    _walk_state, _distribution, _localization_report,
], ids=["Coin", "DispersionTable", "DispersionTable-eigenvectors",
        "WalkState", "ProbabilityDistribution", "LocalizationReport"])


@RECORDS
def test_records_store_read_only_copies(build):
    # A record freezes its own copy of each array field, never the caller's.
    record, sources = build()
    for name, source in sources.items():
        stored = getattr(record, name)
        assert source.flags.writeable, name
        assert not stored.flags.writeable, name
        assert stored is not source, name
        np.testing.assert_array_equal(stored, source)


@RECORDS
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_records_refuse_non_finite_arrays(build, bad):
    # One array contract: every array field of every record is finite.
    record, sources = build()
    for name, source in sources.items():
        broken = source.copy()
        broken.flat[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(record, **{name: broken})


# Each builder takes the value of its record's last field, a scalar.
SCALARS = pytest.mark.parametrize("build", [
    lambda x: PeakVelocityResult(-0.5, 0.5, x),
    lambda x: Coin(grover_coin().matrix, CoinFamily.CUSTOM, x),
    lambda x: LocalizationReport(np.ones(200), x),
], ids=["PeakVelocityResult-k0", "Coin-parameter",
        "LocalizationReport-flat_band_eigenvalue"])


@SCALARS
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_records_refuse_non_finite_scalars(build, bad):
    # The array contract holds for scalar fields too; None stays allowed.
    with pytest.raises(ValueError, match="non-finite"):
        build(bad)
    assert build(None).to_json()
    assert build(0.25).to_json()


@pytest.mark.parametrize("build", [
    lambda x: PeakVelocityResult(-0.5, 0.5, x),
    lambda x: Coin(grover_coin().matrix, CoinFamily.CUSTOM, x),
], ids=["PeakVelocityResult-k0", "Coin-parameter"])
@pytest.mark.parametrize("bad", [1j, complex(0.5, 0.0), np.complex128(0.5),
                                 True, False, np.bool_(True)],
                         ids=["1j", "0.5+0j", "complex128", "True", "False",
                              "bool_"])
def test_real_scalars_refuse_complex_and_bool(build, bad):
    # A complex value would write [re, im] to JSON and a bool `true`, which
    # Coin.from_json refuses; the CSV would write `1j`.  Real numbers of
    # every kind pass.
    with pytest.raises(ValueError, match="must be a real number, got "):
        build(bad)
    for good in (1, 0.25, np.float64(0.25), np.int64(1), np.float32(0.25)):
        assert build(good).to_json()


@SCALARS
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_json_refuses_non_finite_numbers(build, bad):
    # JSON has no NaN or Infinity: a record's JSON text raises instead of
    # writing the literals, which a strict reader refuses.  The value is set
    # past the constructor, which refuses it first.
    record = build(0.25)
    name = dataclasses.fields(record)[-1].name
    object.__setattr__(record, name, bad)
    with pytest.raises(ValueError, match="not JSON compliant"):
        record.to_json()


# Calls that open a file: the builtin and the file methods of ``pathlib``.
_FILE_OPENERS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def test_only_cli_opens_files():
    # Records render text; the CLI alone reads coin files and writes output.
    opened = {}
    for path in sorted(Path(triwalk.__file__).parent.glob("*.py")):
        calls = [node.func for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)]
        names = [getattr(f, "id", None) or getattr(f, "attr", None)
                 for f in calls]
        opened[path.name] = [n for n in names if n in _FILE_OPENERS]
    assert "open" in opened.pop("cli.py")
    assert not {name: calls for name, calls in opened.items() if calls}


def _imported_modules(tree: ast.AST) -> list[str]:
    """Modules a source imports: statements, ``__import__`` and
    ``importlib.import_module`` calls with a literal name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        elif (isinstance(node, ast.Call)
              and (getattr(node.func, "id", None) == "__import__"
                   or getattr(node.func, "attr", None) == "import_module")):
            names += [arg.value for arg in node.args[:1]
                      if isinstance(arg, ast.Constant)]
    return names


@pytest.mark.parametrize("source, expected", [
    ("import triwalk.walk as w", ["triwalk.walk"]),
    ("from triwalk import spectral", ["triwalk"]),
    ("from . import coins", ["."]),
    ("def f():\n    import importlib\n"
     "    return importlib.import_module('triwalk')",
     ["importlib", "triwalk"]),
    ("m = __import__('triwalk.coins')", ["triwalk.coins"]),
])
def test_imported_modules_finds_every_form(source, expected):
    assert _imported_modules(ast.parse(source)) == expected


def test_oracles_stay_independent():
    # tests/oracles.py checks the package, so it must compute every
    # reference without it: no import of triwalk in any form, nor a
    # relative one.
    path = Path(__file__).with_name("oracles.py")
    names = _imported_modules(ast.parse(path.read_text()))
    assert "numpy" in names
    assert not [n for n in names
                if n.startswith(".") or n.split(".")[0] == "triwalk"]


def test_size_tool_counts_this_checkout():
    # tools/size.py: one row per module, totals that add the rows up, and
    # the package's public names.
    tool = Path(__file__).resolve().parents[1] / "tools" / "size.py"
    out = subprocess.run([sys.executable, str(tool)], check=True, text=True,
                         capture_output=True).stdout.splitlines()
    header, *table, total, names = out
    assert header.split() == ["module", "lines", "code"]
    modules = sorted(p.name for p in Path(triwalk.__file__).parent.glob("*.py"))
    assert [row.split()[0] for row in table] == modules
    counts = [[int(x) for x in row.split()[1:]] for row in table]
    assert total.split()[0] == "total"
    assert [int(x) for x in total.split()[1:]] == [sum(c) for c in zip(*counts)]
    assert all(0 < code < lines for lines, code in counts)
    assert names == f"public names: {len(triwalk.__all__)}"


def test_ab_tool_runs_this_checkout_against_itself(tmp_path):
    # tools/ab.py: for each tree its wall, CPU and peak lines, then the
    # pairs in which the second tree was faster and used less CPU.
    root = Path(__file__).resolve().parents[1]
    src = str(Path(triwalk.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, str(root / "tools" / "ab.py"), "--src", src,
         "--src", src, "--pairs", "2", "--", "velocity", "--grid", "16",
         "--out", str(tmp_path / "vel.json")],
        check=True, text=True, capture_output=True).stdout.splitlines()
    assert out[0] == f"command: velocity --grid 16 --out {tmp_path / 'vel.json'}"
    for tree in out[1:5], out[5:9]:
        assert tree[1].startswith("  wall s: median ")
        assert re.fullmatch(r"  CPU s: median \d+\.\d{4}", tree[2])
        assert tree[3].startswith("  own peak RSS MB: median ")
    assert re.fullmatch(r"B faster in [0-2] of 2 pairs", out[9])
    assert re.fullmatch(r"B used less CPU in [0-2] of 2 pairs", out[10])
    assert len(out) == 11


def _bench_names(tree: ast.AST) -> tuple[set[tuple[str, str]], bool]:
    """The ``(layer, name)`` pairs a source reads as ``modules["layer"].name``
    or ``getattr(modules["layer"], "name", ...)``, and whether any call of
    it passes ``include_eigenvectors``."""
    def layer(node):
        if (isinstance(node, ast.Subscript)
                and getattr(node.value, "id", None) == "modules"
                and isinstance(node.slice, ast.Constant)):
            return node.slice.value
        return None

    names, eigenvectors = set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and layer(node.value):
            names.add((layer(node.value), node.attr))
        elif isinstance(node, ast.Call):
            args = node.args
            if (getattr(node.func, "id", None) == "getattr" and len(args) >= 2
                    and layer(args[0]) and isinstance(args[1], ast.Constant)):
                names.add((layer(args[0]), args[1].value))
            eigenvectors |= any(k.arg == "include_eigenvectors"
                                for k in node.keywords)
    return names, eigenvectors


def test_bench_names_exist():
    # bench/ reaches the package through modules["layer"], which no import
    # check sees: each name it reads must still be there, and
    # dispersion_numeric must take the keyword it passes.
    bench = Path(__file__).resolve().parents[1] / "bench"
    names, eigenvectors = set(), False
    for path in sorted(bench.glob("*.py")):
        found, passes = _bench_names(ast.parse(path.read_text()))
        names |= found
        eigenvectors |= passes
    assert names
    for layer, name in sorted(names):
        module = importlib.import_module(f"triwalk.{layer}")
        assert hasattr(module, name), f"bench reads triwalk.{layer}.{name}"
    if eigenvectors:
        params = inspect.signature(spectral.dispersion_numeric).parameters
        assert "include_eigenvectors" in params
