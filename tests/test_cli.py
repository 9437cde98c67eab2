import ast
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
import triwalk.spectral as spectral
import triwalk.walk as walk
from triwalk.cli import build_parser, main, parse_coin, parse_state
from triwalk.coins import (Coin, CoinFamily, coin_c1, coin_c2, fourier_coin,
                           grover_coin)
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


ROOT = Path(__file__).resolve().parents[1]

# A child Python imports the package from this checkout's src/, and argparse
# wraps --help to 80 columns, as in process under monkeypatch.setenv.  Its
# piped stdout is block-buffered, as by default, so an unflushed line is lost.
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    "COLUMNS": "80",
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p),
}


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; every CLI start imports triwalk.
    # The CLI computes sweep rows in order, so it loads no thread pool either.
    for module, unwanted in (("triwalk", "scipy"),
                             ("triwalk.cli", "concurrent")):
        code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
                f"if m.split('.')[0] == {unwanted!r}))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60, env=CHILD_ENV)
        assert out.stdout.strip() == "[]", module


def test_readme_examples_parse():
    # Every example in README's "Command line" block must be accepted as
    # written; the commands are parsed, not run.
    readme = (ROOT / "README.md").read_text()
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
    readme = (ROOT / "README.md").read_text()
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

    UNRECOGNIZED = ("unrecognized coin spec {!r}; expected grover, c1:<phi>, "
                    "c2:<rho>, pi, or matrix:<path>")

    @pytest.mark.parametrize("spec, code, error, message", [
        ("c1", 2, "ConfigError", UNRECOGNIZED.format("c1")),
        ("c1:", 2, "ConfigError", "c1 parameter must be a number, got ''"),
        ("c1:x", 2, "ConfigError", "c1 parameter must be a number, got 'x'"),
        ("c2:", 2, "ConfigError", "c2 parameter must be a number, got ''"),
        ("c3:0.5", 2, "ConfigError", UNRECOGNIZED.format("c3:0.5")),
        ("pi:", 2, "ConfigError", UNRECOGNIZED.format("pi:")),
        ("matrix", 2, "ConfigError", UNRECOGNIZED.format("matrix")),
        ("matrix:", 4, "FileNotFoundError",
         "[Errno 2] No such file or directory: ''"),
    ])
    def test_bad_spec_exit_and_message(self, tmp_path, capsys, spec, code,
                                       error, message):
        out = tmp_path / "vel.json"
        assert main(["velocity", "--coin", spec, "--out", str(out)]) == code
        assert json.loads(capsys.readouterr().err) == {"error": error,
                                                       "message": message}
        assert not out.exists()


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

    @pytest.mark.parametrize("spec", [
        "1e200,0,0,0,0,0",
        "1e-200,0,0,0,0,0",
        "1e-320,0,0,0,0,0",  # subnormal
        "0,0,0,0,5e-324,0",  # the least subnormal
    ])
    def test_extreme_scale_normalizes(self, spec):
        # The plain sum of squares overflows or underflows here; the state
        # still normalizes to a unit vector, as it does with a 2 in place of
        # the nonzero component.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            psi = parse_state(spec)
        plain = ",".join("2" if float(x) else "0" for x in spec.split(","))
        assert sorted(psi.tolist(), key=abs) == [0, 0, 1]
        assert np.array_equal(psi, parse_state(plain))

    @pytest.mark.parametrize("spec", ["1e-320,0,0,0,0,0", "0,0,0,0,5e-324,0"])
    def test_subnormal_state_runs(self, tmp_path, capsys, spec):
        code = main(["simulate", "--state", spec, "--steps", "3",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"warning: state norm was \S+; normalizing", err[0])

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
        assert (data["m_min"], data["m_max"]) == (-50, 50)
        dist = ProbabilityDistribution(data["time"], data["p"])
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
        # c1 reduces phi mod pi; 2.0 lies above pi/2, where c1(phi) is the
        # conjugate of c1(pi - phi), so the closed form at pi - 2.0 applies.
        ("c1:2.0", "7.226", "analytic"),
    ])
    def test_predicted_front(self, tmp_path, capsys, coin, front, label):
        code = main(["simulate", "--coin", coin, "--steps", "50",
                     "--grid", "512", "--out", str(tmp_path / "x.csv")])
        assert code == 0
        predicted = capsys.readouterr().out.splitlines()[-1]
        assert predicted.startswith(f"predicted t*v_R = {front} ")
        assert predicted.endswith(f", {label})")

    def test_c1_past_half_pi_takes_closed_form(self, tmp_path, capsys,
                                                monkeypatch):
        def numeric(*args):
            raise AssertionError("numeric velocity search ran")

        monkeypatch.setattr(cli, "peak_velocities_numeric", numeric)
        assert main(["simulate", "--coin", "c1:2.0", "--steps", "50",
                     "--out", str(tmp_path / "x.csv")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "predicted t*v_R = 7.226 (v_R = 0.144512, analytic)")

    def test_negative_zero_parameter(self, tmp_path, capsys):
        # c2 keeps no sign of zero: c2:-0 prints v_R = 0.000000, not -0.
        printed = []
        for spec in ("c2:-0", "c2:0"):
            assert main(["simulate", "--coin", spec, "--steps", "20",
                         "--out", str(tmp_path / "x.csv")]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert "(v_R = 0.000000, analytic)" in printed[0]

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
        data = json.loads(out.read_text())
        assert data.pop("method") == "numeric"
        result = PeakVelocityResult(**data)
        assert abs(result.v_right - 0.57735) < 1e-4
        assert abs(result.v_right - 1 / math.sqrt(3)) < 1e-6

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
        data = json.loads(out.read_text())
        assert data.pop("method") == "numeric"
        result = PeakVelocityResult(**data)
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

    @pytest.mark.parametrize("grid", [16, 17, 256, 4096])
    def test_c1_rows_match_serial_calls(self, tmp_path, grid):
        # The sweep refines only the maximum; v_numeric keeps the bits of a
        # full call per point, the flat coin c1(pi/2) included.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", "c1", "--points", "5",
                     "--grid", str(grid), "--out", str(out)]) == 0
        rows = [[float(x) for x in line.split(",")]
                for line in out.read_text().splitlines()[1:]]
        assert [(r[0], r[2]) for r in rows] == [
            (p, peak_velocities_numeric(coin_c1(p), grid).v_right)
            for p in np.linspace(0.0, math.pi / 2, 5)
        ]

    def test_one_zoom_for_every_point(self, tmp_path, monkeypatch):
        # The 49 points that spread (c1(pi/2) is flat) share one zoom, which
        # refines only the maximum, the one velocity the sweep prints.
        calls = []
        zoom = spectral._zoom

        def counted(objective, centers, half_width):
            calls.append(centers.shape)
            return zoom(objective, centers, half_width)

        monkeypatch.setattr(spectral, "_zoom", counted)
        assert main(["sweep", "--family", "c1", "--points", "50", "--grid",
                     "256", "--out", str(tmp_path / "sweep.csv")]) == 0
        assert calls == [(49, 1)]

    def test_unknown_family_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "c3", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert "invalid choice: 'c3'" in capsys.readouterr().err

    def test_help_names_the_families(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert "--family {c1,c2}" in capsys.readouterr().out

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
    # Both commands step one preallocated buffer: they build the initial
    # WalkState and at most a final one, never one per step.
    built = []
    post_init = walk.WalkState.__post_init__

    def counted(state):
        built.append(state.time)
        post_init(state)

    monkeypatch.setattr(walk.WalkState, "__post_init__", counted)
    assert main([*command, "--out", str(tmp_path / "out.json"),
                 "--format", "json"]) == 0
    assert built and len(built) <= 2


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
        # JSON booleans are not numbers, though Python reads them as 1 and
        # 0: these entries would otherwise load as the permutation coin.
        ({"family": "custom", "parameter": None,
          "matrix": [[x == 1.0, False] for x in (0, 0, 1, 0, 1, 0, 1, 0, 0)]},
         SCHEMA),
        # The constructor's range check is reported as it is.
        ({"family": "c2", "parameter": 2, "matrix": GROVER_ENTRIES},
         "rho must lie in [0, 1]"),
        # Integers too large for a double, and nesting deeper than the
        # parser's recursion limit (given as raw text).
        ({"family": "custom", "parameter": None,
          "matrix": [[10 ** 400, 0]] + GROVER_ENTRIES[1:]}, SCHEMA),
        ({"family": "c1", "parameter": 10 ** 400, "matrix": GROVER_ENTRIES},
         SCHEMA),
        ("[" * 200000 + "]" * 200000, SCHEMA),
    ], ids=["missing-key", "not-an-object", "c1-without-parameter",
            "c2-label-mismatch", "custom-with-parameter", "two-entries",
            "nine-triples", "boolean-entries", "c2-out-of-range",
            "huge-entry", "huge-parameter", "deep-nesting"])
    def test_malformed_coin_file_exit_2(self, tmp_path, capsys, record,
                                        message):
        path = tmp_path / "coin.json"
        path.write_text(record if isinstance(record, str)
                        else json.dumps(record))
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
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "MemoryError",
            "message": "Unable to allocate 1.07 GiB for an array"}
        assert not out.exists()

    @pytest.mark.parametrize("error, code", [
        (MemoryError("Unable to allocate 1.07 GiB for an array"), 2),
        (cli.InvariantViolation("peak velocity breaks the light cone"), 3),
    ], ids=["MemoryError", "InvariantViolation"])
    def test_simulate_fails_before_output(self, tmp_path, capsys, monkeypatch,
                                          error, code):
        # A coin without a closed-form velocity takes the numeric one, which
        # can still fail; then no file is written and nothing is printed.
        def fail(*args):
            raise error

        monkeypatch.setattr(cli, "peak_velocities_numeric", fail)
        path = tmp_path / "coin.json"
        path.write_text(fourier_coin().to_json())
        out = tmp_path / "out.csv"
        assert main(["simulate", "--coin", f"matrix:{path}", "--steps", "20",
                     "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == type(error).__name__
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

    def test_named_family_without_exchange_symmetry_exit_3(self, tmp_path,
                                                            capsys):
        # Fourier entries are unitary, but no named family may carry them:
        # every named coin commutes with the L<->R exchange.
        path = tmp_path / "coin.json"
        path.write_text(json.dumps({
            "family": "grover", "parameter": None,
            "matrix": [[z.real, z.imag] for z in fourier_coin().matrix.flat],
        }))
        out = tmp_path / "x.json"
        code = main(["velocity", "--coin", f"matrix:{path}", "--out",
                     str(out)])
        assert code == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "InvariantViolation",
            "message": "grover coin breaks L<->R symmetry by 1.000e+00"}
        assert not out.exists()


class TestOutputBytes:
    """Exact text of every record's renderers on hand-built records.

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

    def test_distribution(self):
        dist = ProbabilityDistribution(1, [0.1, 0.5, 0.4])
        assert dist.to_csv() == (
            "m,p\n-1,0.10000000000000001\n0,0.5\n1,0.40000000000000002\n"
        )
        assert dist.to_json() == (
            '{"time": 1, "m_min": -1, "m_max": 1, "p": [0.1, 0.5, 0.4]}'
        )

    def test_dispersion(self):
        # The closed 4-sample grid k = j pi/2.  The velocities are the
        # periodic central differences over 2h = pi; every phase step here
        # is exact in binary, so v1 = +-1/pi and v3 = +-0.5/pi to rounding.
        table = DispersionTable(
            [[0.0, 0.5, 1.0, 1.5], [0.1] * 4, [-0.25, 0.0, 0.25, 0.5]],
            self.COIN,
        )
        assert table.to_csv() == (
            "k,omega1,omega2,omega3,v1,v2,v3\n"
            "0,0,0.10000000000000001,-0.25,"
            "-0.31830988618379069,0,-0.15915494309189535\n"
            "1.5707963267948966,0.5,0.10000000000000001,0,"
            "0.31830988618379069,0,0.15915494309189535\n"
            "3.1415926535897931,1,0.10000000000000001,0.25,"
            "0.31830988618379069,0,0.15915494309189535\n"
            "4.7123889803846897,1.5,0.10000000000000001,0.5,"
            "-0.31830988618379069,0,-0.15915494309189535\n"
        )
        assert table.to_json() == (
            '{"k": [0.0, 1.5707963267948966, 3.141592653589793, '
            '4.71238898038469], "omega": [[0.0, 0.5, 1.0, 1.5], '
            '[0.1, 0.1, 0.1, 0.1], [-0.25, 0.0, 0.25, 0.5]], '
            f'"coin": {self.COIN_JSON}}}'
        )

    @pytest.mark.parametrize("k0, csv_k0, json_k0", [
        (0.1, "0.10000000000000001", "0.1"),
        (None, "", "null"),
    ])
    def test_velocity(self, tmp_path, monkeypatch, k0, csv_k0, json_k0):
        result = PeakVelocityResult(-0.25, 0.1, k0)
        monkeypatch.setattr(cli, "peak_velocities_numeric",
                            lambda coin, grid: result)
        for fmt in ("csv", "json"):
            assert main(["velocity", "--format", fmt,
                         "--out", str(tmp_path / fmt)]) == 0
        expected_csv = ("v_left,v_right,k0,method\n"
                        f"-0.25,0.10000000000000001,{csv_k0},numeric\n")
        expected_json = ('{"v_left": -0.25, "v_right": 0.1, '
                         f'"k0": {json_k0}, "method": "numeric"}}')
        assert result.to_csv() == expected_csv
        assert result.to_json() == expected_json
        assert (tmp_path / "csv").read_text() == expected_csv
        assert (tmp_path / "json").read_text() == expected_json

    @pytest.mark.parametrize("eigenvalue, json_eigenvalue", [
        (complex(0.6, 0.8), "true, \"flat_band_eigenvalue\": [0.6, 0.8]"),
        (None, "false, \"flat_band_eigenvalue\": null"),
    ])
    def test_localization(self, eigenvalue, json_eigenvalue):
        # 200 points, the shortest series, whose window means are exact
        # binary fractions: 0.5 over points 100-149, 0.25 over 150-199.
        cells = ["1"] * 100 + ["0.5"] * 50 + ["0.25"] * 50
        report = LocalizationReport([float(c) for c in cells], eigenvalue)
        assert report.to_json() == (
            '{"series": [' + ", ".join(["1.0"] * 100 + cells[100:]) + '], '
            '"cesaro_windows": [0.5, 0.25], '
            '"trapping_estimate": 0.25, "converged": false, '
            f'"flat_band": {json_eigenvalue}}}'
        )
        assert report.to_csv() == "t,p0\n" + "".join(
            f"{t},{c}\n" for t, c in enumerate(cells))

    def test_sweep(self, tmp_path, monkeypatch):
        # c2 at rho = 0 and 1: the analytic velocity is rho, the deviation 0.
        result = (-0.1, 0.1, None)
        monkeypatch.setattr(cli, "_peak_velocities",
                            lambda matrices, grid, left: [result] * len(matrices))
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


# Each command, the cli global that builds its output record (the sweep
# builds its rows itself) and the options of a small run.
COMMANDS = {
    "simulate": ("probability_distribution", ["--steps", "5"]),
    "dispersion": ("dispersion_numeric", ["--grid", "64"]),
    "velocity": ("peak_velocities_numeric", ["--grid", "64"]),
    "sweep": (None, ["--family", "c2", "--points", "2", "--grid", "64"]),
    "localize": ("localization_report", ["--steps", "199", "--grid", "256"]),
}


class TestOneWriter:
    """Every command writes its output file through ``cli._write_text`` only."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_output_is_the_records_text(self, tmp_path, monkeypatch,
                                        command, fmt):
        producer, options = COMMANDS[command]
        records, writes = [], []
        if producer is not None:
            build = getattr(cli, producer)

            def spy(*args, **kwargs):
                records.append(build(*args, **kwargs))
                return records[-1]

            monkeypatch.setattr(cli, producer, spy)
        monkeypatch.setattr(cli, "_write_text",
                            lambda path, text: writes.append((path, text)))
        out = tmp_path / "out"
        assert main([command, *options, "--format", fmt,
                     "--out", str(out)]) == 0
        assert not out.exists()  # no other writer
        [(path, text)] = writes
        assert path == str(out)
        if producer is None:
            rows = (text.splitlines()[1:] if fmt == "csv"
                    else json.loads(text))
            assert len(rows) == 2
        else:
            [record] = records
            assert text == (record.to_csv() if fmt == "csv"
                            else record.to_json())

    @pytest.mark.parametrize("command", COMMANDS)
    def test_failure_writes_and_prints_nothing(self, tmp_path, capsys,
                                               monkeypatch, command):
        # Every command computes all of its results before main writes or
        # prints, so a failing computation leaves no file and no stdout.
        producer, options = COMMANDS[command]

        def fail(*args, **kwargs):
            raise cli.InvariantViolation("probabilities do not sum to 1")

        monkeypatch.setattr(cli, producer or "_peak_velocities", fail)
        out = tmp_path / "out"
        assert main([command, *options, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {"error": "InvariantViolation",
                                    "message": "probabilities do not sum to 1"}
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_format_help_names_the_default(self, capsys, command):
        # velocity and localize default to JSON, the others to CSV.
        _, options = COMMANDS[command]
        args = build_parser().parse_args([command, *options, "--out", "x"])
        assert args.format == ("json" if command in ("velocity", "localize")
                               else "csv")
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"output format (default {args.format})" in text


# name: (arguments before --out, exit code, stdout line count or None for
# any, a pattern for all of stderr, whether --out is written)
PROCESS_RUNS = {
    "simulate": (("simulate", "--steps", "50"), 0, 2, "", True),
    "off-norm-state": (("simulate", "--steps", "3", "--state", "2,0,0,0,0,0"),
                       0, 2, r"warning: state norm was 2; normalizing\n", True),
    "bad-coin": (("velocity", "--coin", "c3:0.5"), 2, 0,
                 r'\{"error": "ConfigError", "message": "[^\n]*"\}\n', False),
    "help": (("--help",), 0, None, "", False),
    "usage-error": (("simulate", "--steps", "x"), 2, 0,
                    r"usage: triwalk .*invalid int value: 'x'\n", False),
}


@pytest.mark.parametrize("name", PROCESS_RUNS)
def test_process_output_matches_main(tmp_path, capsys, monkeypatch, name):
    # `python -m triwalk.cli` ends through _process_main, which flushes
    # stdout and stderr before os._exit: piped, nothing may be lost, and
    # every byte is what main() prints and writes in process.
    argv, code, n_lines, err_pattern, writes = PROCESS_RUNS[name]
    child, here = tmp_path / "child", tmp_path / "main"
    child.mkdir()
    here.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "triwalk.cli", *argv, "--out", "out"],
        cwd=child, env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    monkeypatch.chdir(here)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        status = main([*argv, "--out", "out"])
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert proc.returncode == status == code
    assert proc.stdout == captured.out
    assert proc.stderr == captured.err
    assert n_lines is None or len(proc.stdout.splitlines()) == n_lines
    assert re.fullmatch(err_pattern, proc.stderr, re.S)
    assert (child / "out").exists() is (here / "out").exists() is writes
    if writes:
        assert (child / "out").read_bytes() == (here / "out").read_bytes()


def test_every_process_entry_is_process_main():
    # The installed script and `python -m triwalk.cli` take one exit path.
    pyproject = (ROOT / "pyproject.toml").read_text()
    target = re.search(r'^\[project\.scripts\]\ntriwalk = "(.+)"$', pyproject,
                       re.M).group(1)
    tree = ast.parse(Path(cli.__file__).read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [call] = block.body
    assert ast.unparse(call) == "_process_main()"
    assert target == f"triwalk.cli:{call.value.func.id}"


@pytest.mark.parametrize("stdout, code, err_pattern", [
    ("closed", 0, ""),
    ("/dev/full", 120, r"Exception ignored in: <_io\.TextIOWrapper "
                       r"name='<stdout>'[^\n]*\nOSError: \[Errno 28\] .*\n"),
], ids=["closed", "dev-full"])
def test_process_with_unusable_stdout(tmp_path, stdout, code, err_pattern):
    # With file descriptor 1 closed, Python sets sys.stdout to None and
    # print() writes nothing: the run succeeds.  A flush that fails is left
    # to the interpreter, which reports it and exits 120, as it always has.
    with open(os.devnull if stdout == "closed" else stdout, "w") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "triwalk.cli", "simulate", "--steps", "3",
             "--out", "out"], cwd=tmp_path, env=CHILD_ENV, stdout=fh,
            stderr=subprocess.PIPE, text=True, timeout=120,
            preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None)
    assert proc.returncode == code
    assert re.fullmatch(err_pattern, proc.stderr, re.S)
    assert (tmp_path / "out").read_text().startswith("m,p\n")
