import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import triwalk.cli as cli
import triwalk.localization as localization
import triwalk.walk as walk
from triwalk.cli import build_parser, main, parse_coin, parse_state
from triwalk.coins import Coin, CoinFamily, coin_c2, fourier_coin, grover_coin
from triwalk.localization import LocalizationReport
from triwalk.spectral import (
    DispersionTable,
    PeakVelocityResult,
    peak_velocities_numeric,
)
from triwalk.walk import ProbabilityDistribution


def read_csv_distribution(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "m,p"
    sites, probs = [], []
    for line in lines[1:]:
        m, p = line.split(",")
        sites.append(int(m))
        probs.append(float(p))
    return np.array(sites), np.array(probs)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; every CLI start imports triwalk.
    # The CLI computes sweep rows in order, so it loads no thread pool either.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for module, unwanted in (("triwalk", "scipy"),
                             ("triwalk.cli", "concurrent")):
        code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
                f"if m.split('.')[0] == {unwanted!r}))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.strip() == "[]", module


def test_readme_examples_parse():
    # Every example in README's "Command line" block must be accepted as
    # written; the commands are parsed, not run.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = [line for line in block.splitlines()
                if line.startswith("triwalk ")]
    assert len(examples) == 5
    for line in examples:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert args.func is not None


def test_readme_quick_start_runs(capsys):
    # The "Library quick start" block runs as written, and each printed line
    # matches its comment, where "..." stands for any text.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    comments = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    exec(block, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(comments) == 4
    for out, comment in zip(printed, comments):
        pattern = ".*".join(map(re.escape, comment.split("...")))
        assert re.fullmatch(pattern, out), (out, comment)


class TestCoinSpecGrammar:
    def test_named_coins(self):
        assert parse_coin("grover").family is CoinFamily.GROVER
        assert parse_coin("pi").family is CoinFamily.PERMUTATION_PI

    def test_parametrized(self):
        assert parse_coin("c1:0.5").parameter == pytest.approx(0.5)
        assert parse_coin("c2:0.75").parameter == pytest.approx(0.75)

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "coin.json"
        path.write_text(fourier_coin().to_json())
        coin = parse_coin(f"matrix:{path}")
        assert np.array_equal(coin.matrix, fourier_coin().matrix)

    def test_bad_spec(self):
        from triwalk.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_coin("hadamard")


class TestStateParsing:
    def test_six_reals(self):
        psi = parse_state("1,0,0,0,0,0")
        assert psi[0] == pytest.approx(1.0)

    def test_normalizes_with_warning(self, capsys):
        psi = parse_state("1,0,-1,0,1,0")
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-12
        assert "normalizing" in capsys.readouterr().err

    def test_wrong_arity(self):
        from triwalk.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_state("1,2,3")

    @pytest.mark.parametrize("spec", ["1e200,0,0,0,0,0", "1e-200,0,0,0,0,0"])
    def test_extreme_scale_normalizes(self, spec):
        # The plain sum of squares overflows or underflows here; the state
        # still normalizes to (1, 0, 0), as "2,0,0,0,0,0" does.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            psi = parse_state(spec)
        assert psi.tolist() == [1, 0, 0]
        assert np.array_equal(psi, parse_state("2,0,0,0,0,0"))

    def test_norm_beyond_double_range_reported(self, capsys):
        # The true norm, sqrt(6) * 1e308, overflows a double.
        psi = parse_state("1e308,1e308,1e308,1e308,1e308,1e308")
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-12
        err = capsys.readouterr().err
        assert "inf" not in err
        assert err == "warning: state norm was 2.44948974278e+308; normalizing\n"


class TestSimulate:
    def test_csv_output_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        code = main(["simulate", "--coin", "grover", "--steps", "50",
                     "--out", str(out)])
        assert code == 0
        sites, probs = read_csv_distribution(out)
        assert sites[0] == -50 and sites[-1] == 50
        assert abs(probs.sum() - 1.0) < 1e-12
        # side-lobe maximum (oracle-frozen) and the ballistic prediction
        pos = sites > 0
        assert sites[pos][np.argmax(probs[pos])] == 27
        stdout = capsys.readouterr().out
        assert "right=27" in stdout
        assert "28.868" in stdout

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "dist.json"
        code = main(["simulate", "--coin", "c2:0.9", "--steps", "50",
                     "--state", "1,0,0,0,1,0", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        dist = ProbabilityDistribution(data["time"], data["m_min"], data["p"])
        assert dist.time == 50
        assert abs(dist.probabilities.sum() - 1.0) < 1e-12
        sites = dist.sites
        right = sites[sites > 0][np.argmax(dist.probabilities[sites > 0])]
        assert abs(right - 45) <= 1

    def test_deterministic_output(self, tmp_path):
        args = ["simulate", "--coin", "c1:0.7", "--steps", "40"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("coin, front, label", [
        ("grover", "28.868", "analytic"),
        # c1 reduces phi mod pi; 2.0 lies above pi/2, past the closed form,
        # and the numeric value equals peak_velocity_c1(pi - 2.0).
        ("c1:2.0", "7.226", "numeric"),
    ])
    def test_predicted_front(self, tmp_path, capsys, coin, front, label):
        code = main(["simulate", "--coin", coin, "--steps", "50",
                     "--grid", "512", "--out", str(tmp_path / "x.csv")])
        assert code == 0
        predicted = capsys.readouterr().out.splitlines()[-1]
        assert predicted.startswith(f"predicted t*v_R = {front} ")
        assert predicted.endswith(f", {label})")

    def test_steps_cap(self, tmp_path, capsys):
        code = main(["simulate", "--steps", "200000",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestDispersion:
    def test_flat_branch_column(self, tmp_path):
        out = tmp_path / "disp.csv"
        assert main(["dispersion", "--coin", "grover", "--grid", "512",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,omega1,omega2,omega3,v1,v2,v3"
        omega3 = np.array([float(line.split(",")[3]) for line in lines[1:]])
        assert np.max(np.abs(omega3)) < 1e-10

    def test_grid_floor(self, tmp_path, capsys):
        assert main(["dispersion", "--grid", "8",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestVelocity:
    def test_grover_json(self, tmp_path):
        out = tmp_path / "vel.json"
        assert main(["velocity", "--coin", "grover", "--out", str(out)]) == 0
        result = PeakVelocityResult(**json.loads(out.read_text()))
        assert abs(result.v_right - 0.57735) < 1e-4
        assert abs(result.v_right - 1 / math.sqrt(3)) < 1e-6
        assert result.method == "numeric"

    def test_csv_variant(self, tmp_path):
        out = tmp_path / "vel.csv"
        assert main(["velocity", "--coin", "c2:0.5", "--format", "csv",
                     "--grid", "1024", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "v_left,v_right,k0,method"
        fields = row.split(",")
        assert abs(float(fields[1]) - 0.5) < 1e-6
        assert fields[3] == "numeric"

    def test_matrix_coin(self, tmp_path):
        path = tmp_path / "coin.json"
        path.write_text(fourier_coin().to_json())
        out = tmp_path / "vel.json"
        assert main(["velocity", "--coin", f"matrix:{path}", "--grid", "1024",
                     "--out", str(out)]) == 0
        result = PeakVelocityResult(**json.loads(out.read_text()))
        assert result.v_right <= 1.0 + 1e-9


class TestSweep:
    def test_c2_identity_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", "c2", "--points", "11",
                     "--grid", "1024", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "parameter,v_analytic,v_numeric,deviation_from_linear"
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in lines[1:]])
        assert rows.shape == (11, 4)
        assert np.max(np.abs(rows[:, 1] - rows[:, 0])) < 1e-9
        assert np.max(np.abs(rows[:, 2] - rows[:, 0])) < 1e-9
        assert np.max(np.abs(rows[:, 3])) < 1e-12

    def test_c1_endpoints_and_monotonicity(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--family", "c1", "--points", "9",
                     "--grid", "1024", "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 9
        assert abs(rows[0]["v_analytic"] - 1 / math.sqrt(3)) < 1e-9
        assert abs(rows[-1]["v_analytic"]) < 1e-9
        assert abs(rows[0]["deviation_from_linear"]) < 1e-9
        assert abs(rows[-1]["deviation_from_linear"]) < 1e-9
        vals = [r["v_analytic"] for r in rows]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rows_match_serial_order(self, tmp_path):
        # Rows come in parameter order, each bit for bit what a serial
        # recomputation of that point gives.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", "c2", "--points", "5",
                     "--grid", "512", "--out", str(out)]) == 0
        rows = [[float(x) for x in line.split(",")]
                for line in out.read_text().splitlines()[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (p, p, peak_velocities_numeric(coin_c2(p), 512).v_right)
            for p in np.linspace(0.0, 1.0, 5)
        ]

    def test_threads_option_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "c2", "--points", "3", "--threads",
                  "2", "--out", str(tmp_path / "sweep.csv")])
        assert exc.value.code == 2


class TestLocalize:
    def test_trapped_stay_state(self, tmp_path, capsys):
        out = tmp_path / "loc.json"
        code = main(["localize", "--coin", "c2:0", "--state", "0,0,1,0,0,0",
                     "--steps", "300", "--grid", "512", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["trapping_estimate"] == pytest.approx(1.0)
        assert report["flat_band"] is True
        assert "trapping estimate = 1.0" in capsys.readouterr().out

    def test_series_csv(self, tmp_path):
        out = tmp_path / "loc.csv"
        assert main(["localize", "--coin", "grover", "--steps", "250",
                     "--grid", "512", "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,p0"
        assert len(lines) == 252


@pytest.mark.parametrize("command", [
    ["simulate", "--steps", "30"],
    ["localize", "--steps", "200", "--grid", "256"],
], ids=["simulate", "localize"])
def test_walks_without_per_step_states(tmp_path, monkeypatch, command):
    # Both commands step one preallocated buffer; none builds a WalkState per
    # step through walk.step.
    def no_step(*args):
        raise AssertionError("walk.step ran")

    monkeypatch.setattr(walk, "step", no_step)
    monkeypatch.setattr(localization, "step", no_step, raising=False)
    assert main([*command, "--out", str(tmp_path / "out.json"),
                 "--format", "json"]) == 0


class TestErrorPaths:
    def test_unknown_coin_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--coin", "nope", "--out",
                     str(tmp_path / "x.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "nope" in err["message"]

    def test_unwritable_path_exit_4(self, tmp_path, capsys):
        code = main(["simulate", "--out",
                     str(tmp_path / "missing_dir" / "x.csv")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] in ("FileNotFoundError", "OSError")

    def test_missing_matrix_file_exit_4(self, tmp_path, capsys):
        code = main(["velocity", "--coin", "matrix:/does/not/exist.json",
                     "--out", str(tmp_path / "x.json")])
        assert code == 4

    @pytest.mark.parametrize("command, state, out", [
        ("simulate", "nan,0,0,0,0,0", "x.csv"),
        ("localize", "inf,0,0,0,0,0", "x.json"),
    ])
    def test_non_finite_state_exit_2(self, tmp_path, capsys, command, state,
                                     out):
        path = tmp_path / out
        code = main([command, "--state", state, "--steps", "3",
                     "--grid", "512", "--out", str(path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert not path.exists()

    @pytest.mark.parametrize("options, message", [
        (["--steps", "3000", "--grid", "128"],
         "flat band detection needs at least 256 samples"),
        (["--steps", "100"], "t_max must be at least 199"),
    ], ids=["small-grid", "short-walk"])
    def test_localize_checks_before_walking(self, tmp_path, capsys,
                                            monkeypatch, options, message):
        def no_walk(*args):
            raise AssertionError("origin_series ran")

        monkeypatch.setattr(localization, "origin_series", no_walk)
        out = tmp_path / "loc.json"
        assert main(["localize", *options, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(message)
        assert not out.exists()

    GROVER_ENTRIES = json.loads(grover_coin().to_json())["matrix"]

    SCHEMA = "coin JSON must be an object with a family"

    @pytest.mark.parametrize("record,message", [
        ({"family": "grover"}, SCHEMA),
        (GROVER_ENTRIES, SCHEMA),
        ({"family": "c1", "parameter": None, "matrix": GROVER_ENTRIES},
         SCHEMA),
        # The Grover matrix is c2 at rho = 1/sqrt(3), not at 0.3.
        ({"family": "c2", "parameter": 0.3, "matrix": GROVER_ENTRIES},
         "matrix is not the c2 coin at parameter 0.3"),
        # Only c1 and c2 carry a parameter.
        ({"family": "custom", "parameter": 0.5, "matrix": GROVER_ENTRIES},
         SCHEMA),
        ({"family": "custom", "parameter": None,
          "matrix": GROVER_ENTRIES[:2]}, SCHEMA),
        ({"family": "custom", "parameter": None,
          "matrix": [z + [0.0] for z in GROVER_ENTRIES]}, SCHEMA),
        # The constructor's range check is reported as it is.
        ({"family": "c2", "parameter": 2, "matrix": GROVER_ENTRIES},
         "rho must lie in [0, 1]"),
    ], ids=["missing-key", "not-an-object", "c1-without-parameter",
            "c2-label-mismatch", "custom-with-parameter", "two-entries",
            "nine-triples", "c2-out-of-range"])
    def test_malformed_coin_file_exit_2(self, tmp_path, capsys, record,
                                        message):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(record))
        out = tmp_path / "x.csv"
        code = main(["simulate", "--coin", f"matrix:{path}", "--steps", "3",
                     "--grid", "512", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(message)
        assert not out.exists()

    def test_non_number_parameter_exit_2(self, tmp_path, capsys):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps({"family": "c1", "parameter": "x",
                                    "matrix": self.GROVER_ENTRIES}))
        out = tmp_path / "x.csv"
        code = main(["dispersion", "--coin", f"matrix:{path}", "--grid", "64",
                     "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(self.SCHEMA)
        assert not out.exists()

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # A grid too large for the machine is a configuration error; the
        # allocation failure is simulated, nothing large is allocated.
        def no_memory(*args):
            raise MemoryError("Unable to allocate 1.07 GiB for an array")

        monkeypatch.setattr(cli, "peak_velocities_numeric", no_memory)
        out = tmp_path / "vel.json"
        code = main(["velocity", "--grid", "50000000", "--out", str(out)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "MemoryError",
            "message": "Unable to allocate 1.07 GiB for an array"}
        assert not out.exists()

    def test_invalid_matrix_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "family": "custom",
            "parameter": None,
            "matrix": [[1.0, 0.0]] * 9,
        }))
        code = main(["velocity", "--coin", f"matrix:{path}",
                     "--out", str(tmp_path / "x.json")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvariantViolation"


class TestOutputBytes:
    """Exact bytes of every writer on hand-built records.

    No eigensolver is involved, so the bytes are the same on any machine.
    CSV floats carry 17 significant digits (0.1 is 0.10000000000000001);
    JSON floats are the shortest text that reads back to the same double.
    """

    COIN = Coin(np.diag([1j, -1.0, 1j]))
    COIN_JSON = (
        '{"family": "custom", "parameter": null, "matrix": [[0.0, 1.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]}'
    )

    def test_coin(self):
        assert self.COIN.to_json() == self.COIN_JSON

    def test_distribution(self, tmp_path):
        dist = ProbabilityDistribution(2, -1, [0.1, 0.5, 0.4])
        dist.to_csv(tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_text() == (
            "m,p\n-1,0.10000000000000001\n0,0.5\n1,0.40000000000000002\n"
        )
        assert dist.to_json() == (
            '{"time": 2, "m_min": -1, "m_max": 1, "p": [0.1, 0.5, 0.4]}'
        )

    def test_dispersion(self, tmp_path):
        # Uniform grid with spacing 0.5; the velocities are the periodic
        # central differences, exact in binary here.
        table = DispersionTable(
            0.5 * np.arange(4),
            [[0.0, 0.5, 1.0, 1.5], [0.1] * 4, [-0.25, 0.0, 0.25, 0.5]],
            self.COIN,
        )
        table.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == (
            "k,omega1,omega2,omega3,v1,v2,v3\n"
            "0,0,0.10000000000000001,-0.25,-1,0,-0.5\n"
            "0.5,0.5,0.10000000000000001,0,1,0,0.5\n"
            "1,1,0.10000000000000001,0.25,1,0,0.5\n"
            "1.5,1.5,0.10000000000000001,0.5,-1,0,-0.5\n"
        )
        assert table.to_json() == (
            '{"k": [0.0, 0.5, 1.0, 1.5], "omega": [[0.0, 0.5, 1.0, 1.5], '
            '[0.1, 0.1, 0.1, 0.1], [-0.25, 0.0, 0.25, 0.5]], '
            f'"coin": {self.COIN_JSON}}}'
        )

    @pytest.mark.parametrize("k0, csv_k0, json_k0", [
        (0.1, "0.10000000000000001", "0.1"),
        (None, "", "null"),
    ])
    def test_velocity(self, tmp_path, monkeypatch, k0, csv_k0, json_k0):
        result = PeakVelocityResult(-0.25, 0.1, k0, "numeric")
        monkeypatch.setattr(cli, "peak_velocities_numeric",
                            lambda coin, grid: result)
        for fmt in ("csv", "json"):
            assert main(["velocity", "--format", fmt,
                         "--out", str(tmp_path / fmt)]) == 0
        assert (tmp_path / "csv").read_text() == (
            "v_left,v_right,k0,method\n"
            f"-0.25,0.10000000000000001,{csv_k0},numeric\n"
        )
        expected_json = ('{"v_left": -0.25, "v_right": 0.1, '
                         f'"k0": {json_k0}, "method": "numeric"}}')
        assert (tmp_path / "json").read_text() == expected_json
        assert result.to_json() == expected_json

    @pytest.mark.parametrize("eigenvalue, json_eigenvalue", [
        (complex(0.6, 0.8), "true, \"flat_band_eigenvalue\": [0.6, 0.8]"),
        (None, "false, \"flat_band_eigenvalue\": null"),
    ])
    def test_localization(self, tmp_path, eigenvalue, json_eigenvalue):
        report = LocalizationReport([1.0, 0.1, 0.25], (0.1, 0.125), 0.125,
                                    False, eigenvalue is not None, eigenvalue)
        assert report.to_json() == (
            '{"series": [1.0, 0.1, 0.25], "cesaro_windows": [0.1, 0.125], '
            '"trapping_estimate": 0.125, "converged": false, '
            f'"flat_band": {json_eigenvalue}}}'
        )
        report.series_to_csv(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_text() == (
            "t,p0\n0,1\n1,0.10000000000000001\n2,0.25\n"
        )

    def test_sweep(self, tmp_path, monkeypatch):
        # c2 at rho = 0 and 1: the analytic velocity is rho, the deviation 0.
        result = PeakVelocityResult(-0.1, 0.1, None, "numeric")
        monkeypatch.setattr(cli, "peak_velocities_numeric",
                            lambda coin, grid: result)
        for fmt in ("csv", "json"):
            assert main(["sweep", "--family", "c2", "--points", "2",
                         "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
        assert (tmp_path / "csv").read_text() == (
            "parameter,v_analytic,v_numeric,deviation_from_linear\n"
            "0,0,0.10000000000000001,0\n"
            "1,1,0.10000000000000001,0\n"
        )
        assert (tmp_path / "json").read_text() == (
            '[{"parameter": 0.0, "v_analytic": 0.0, "v_numeric": 0.1, '
            '"deviation_from_linear": 0.0}, '
            '{"parameter": 1.0, "v_analytic": 1.0, "v_numeric": 0.1, '
            '"deviation_from_linear": 0.0}]'
        )
