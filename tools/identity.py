"""Byte-identity manifest of the command-line output.

Runs one fixed list of ``triwalk`` invocations in process through
``triwalk.cli.main``, catching argparse's ``SystemExit``, and a few more as
``python -m triwalk.cli`` child processes of the ``--src`` tree, so that the
process's own exit path is covered; their keys start with ``python -m
triwalk.cli`` instead of ``triwalk``.  For each it records the exit code
and the SHA-256 of its stdout, its stderr and its ``--out`` file.  An
in-process invocation that raises any other exception is recorded with the
exit ``"raised <type>"``, so a crash in one tree shows as a difference
instead of ending the run.  The work directory and the
``--src`` path are replaced by ``<work>`` and ``<src>`` before hashing, so
manifests written from two source trees compare.  Digests depend on the machine and its BLAS build:
compare only manifests written on one machine, and commit none.

    python tools/identity.py --src PARENT/src --write old.json
    python tools/identity.py --write new.json
    python tools/identity.py --diff old.json new.json

``--diff`` prints "N of N identical", lists each invocation that differs,
and exits 1 when any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from math import inf, nan
from pathlib import Path

import numpy as np

WORK, SRC = "<work>", "<src>"
OUT = f"{WORK}/out"

COINS = ("grover", "c1:0.6", "c1:2.0", "c1:1.5707963267948966", "c2:0",
         "c2:0.9", "c2:1.0", "c2:0.999999999", "pi", f"matrix:{WORK}/haar.json")

PER_COIN = (
    ("simulate", "--steps", "50"),
    ("simulate", "--steps", "50", "--format", "json"),
    ("dispersion", "--grid", "512"),
    ("dispersion", "--grid", "512", "--format", "json"),
    ("velocity",),
    ("velocity", "--grid", "128", "--format", "csv"),  # k0 is empty
    ("localize", "--steps", "300", "--grid", "256"),
    ("localize", "--steps", "300", "--grid", "256", "--format", "csv"),
)

GROVER_ENTRIES = [[2 / 3 - (i == j), 0.0] for i in range(3) for j in range(3)]

# The coin files that the CLI must refuse with exit code 2.
MALFORMED = (
    {"family": "grover"},
    GROVER_ENTRIES,
    {"family": "c1", "parameter": None, "matrix": GROVER_ENTRIES},
    {"family": "c2", "parameter": 0.3, "matrix": GROVER_ENTRIES},
    {"family": "custom", "parameter": 0.5, "matrix": GROVER_ENTRIES},
    {"family": "custom", "parameter": None, "matrix": GROVER_ENTRIES[:2]},
    {"family": "custom", "parameter": None,
     "matrix": [z + [0.0] for z in GROVER_ENTRIES]},
    {"family": "custom", "parameter": None,
     "matrix": [[x == 1, False] for x in (0, 0, 1, 0, 1, 0, 1, 0, 0)]},
    {"family": "c2", "parameter": 2, "matrix": GROVER_ENTRIES},
    {"family": "custom", "parameter": None,
     "matrix": [[10 ** 400, 0]] + GROVER_ENTRIES[1:]},
    {"family": "c1", "parameter": 10 ** 400, "matrix": GROVER_ENTRIES},
    # A non-finite parameter, which the family or the schema refuses first.
    {"family": "c1", "parameter": nan, "matrix": GROVER_ENTRIES},
    {"family": "custom", "parameter": inf, "matrix": GROVER_ENTRIES},
    "[" * 200000 + "]" * 200000,  # raw text, nested past the recursion limit
    # json.dumps writes the literals NaN and Infinity, which json.loads reads.
    *({"family": "custom", "parameter": None,
       "matrix": [[x, 0.0]] + GROVER_ENTRIES[1:]} for x in (nan, inf)),
)

BAD_SPECS = ("c1", "c1:", "c1:x", "c3:0.5", "pi:", "matrix", "matrix:",
             f"matrix:{WORK}/missing.json")


def invocations() -> list[tuple[str, ...]]:
    """The fixed list, with ``<work>`` standing for the work directory."""
    runs = [(*cmd, "--coin", coin, "--out", OUT)
            for coin in COINS for cmd in PER_COIN]
    runs += [
        ("sweep", "--family", "c1", "--points", "12", "--out", OUT),
        ("sweep", "--family", "c2", "--points", "6", "--format", "json",
         "--out", OUT),
        # The benchmark's two sweeps; a flat endpoint on an odd grid; more
        # points than one zoom block.
        ("sweep", "--family", "c1", "--points", "50", "--out", OUT),
        ("sweep", "--family", "c2", "--points", "6", "--out", OUT),
        ("sweep", "--family", "c1", "--points", "2", "--grid", "17",
         "--out", OUT),
        ("sweep", "--family", "c2", "--points", "300", "--grid", "64",
         "--out", OUT),
        # Both points of a c2 sweep on the smallest grid: the flat coin
        # c2(0), certified without an eigensolve, and the touching at rho = 1.
        ("sweep", "--family", "c2", "--points", "2", "--grid", "16",
         "--out", OUT),
        # Near the flat coins: c1 1e-9 below pi/2 is certified flat; c2 at
        # 1e-8 and 6e-9 lies past the flatness bound and takes the
        # eigenvector pass.
        *(("velocity", "--coin", spec, "--out", OUT) for spec in
          ("c1:1.5707963257948966", "c2:1e-8", "c2:6e-9")),
        # Near the flat coins, where a second branch is nearly flat: the
        # flat band reported is the flattest one, lambda = 1.
        *(("localize", "--steps", "300", "--grid", "256", "--coin", spec,
           "--out", OUT) for spec in ("c1:1.5707963257948966", "c2:1e-9")),
        # A cyclic permutation between seeded phases: three flat bands
        # apart at every k, certified flat by their projector slopes.
        *((*cmd, "--coin", f"matrix:{WORK}/cyclic.json", "--out", OUT)
          for cmd in PER_COIN if cmd[0] in ("velocity", "localize")),
        ("sweep", "--family", "c3", "--out", OUT),
        ("simulate", "--steps", "4000", "--out", OUT),
        ("localize", "--steps", "4000", "--out", OUT),
        # Real coins from a real state step in float64, a real coin from a
        # complex state in complex128: long walks on both sides.  A complex
        # coin's long walks take the BLAS product and its strided copy.
        *((cmd, "--steps", "4000", "--coin", spec, "--out", OUT)
          for spec in ("c2:0.9", "c1:0.6")
          for cmd in ("simulate", "localize")),
        ("simulate", "--steps", "777", "--coin", f"matrix:{WORK}/orth.json",
         "--out", OUT),
        ("simulate", "--steps", "777", "--coin", "grover", "--state",
         "0.6,0,0,0.8,0,0", "--out", OUT),
        ("localize", "--grid", "128", "--out", OUT),
        # Branch tracking where the guess fails at the default grid: the
        # rule runs from the touching at k = pi to the end for c2(1), and
        # over almost the whole grid for the degenerate pair of pi.
        *(("dispersion", "--grid", "4096", "--coin", spec, "--out", OUT)
          for spec in ("c2:1.0", "pi")),
        *((cmd, "--out", f"{WORK}/missing/out")
          for cmd in ("simulate", "dispersion", "velocity", "localize")),
        *(("simulate", "--coin", f"matrix:{WORK}/malformed{i}.json",
           "--steps", "3", "--grid", "512", "--out", OUT)
          for i in range(len(MALFORMED))),
        *(("velocity", "--coin", spec, "--out", OUT) for spec in BAD_SPECS),
        *(("simulate", "--state", state, "--steps", "3", "--out", OUT)
          for state in ("1e-320,0,0,0,0,0", "0,0,0,0,5e-324,0")),
        # The command line's own checks: grid floor, step bounds, sweep
        # points, state parsing, a non-unitary coin and an unwritable path.
        *((*cmd, "--grid", "8", "--out", OUT) for cmd in
          (("simulate",), ("dispersion",), ("velocity",),
           ("sweep", "--family", "c1"), ("localize",))),
        ("simulate", "--steps", "-1", "--out", OUT),
        ("localize", "--steps", "-5", "--out", OUT),
        # The shortest run the trapping estimate takes: 199 steps give a
        # 200-point series, 198 are refused.
        *(("localize", "--steps", steps, "--out", OUT)
          for steps in ("198", "199")),
        *((cmd, "--steps", "100001", "--out", OUT)
          for cmd in ("simulate", "localize")),
        ("simulate", "--steps", "100001", "--coin", "c3:0.5", "--out", OUT),
        ("sweep", "--family", "c2", "--points", "1", "--out", OUT),
        *((cmd, "--state", state, "--out", OUT)
          for state in ("1,0,0", "1,0,0,0,nan,0", "0,0,0,0,0,0",
                        "2,0,0,0,0,0", ",".join(["1e308"] * 6))
          for cmd in ("simulate", "localize")),
        *((cmd, "--coin", f"matrix:{WORK}/nonunitary.json", "--out", OUT)
          for cmd in ("simulate", "dispersion", "velocity", "localize")),
        ("sweep", "--family", "c2", "--points", "6",
         "--out", f"{WORK}/missing/out"),
        (),
        ("--help",),
        *((cmd, "--help") for cmd in
          ("simulate", "dispersion", "velocity", "sweep", "localize")),
    ]
    return runs


# Run as child processes: the output of a run, an off-norm state's warning,
# a refused coin, argparse's help and a usage error.
PROCESS = (
    ("simulate", "--steps", "50", "--out", OUT),
    ("simulate", "--steps", "50", "--state", "2,0,0,0,0,0", "--out", OUT),
    ("velocity", "--coin", "c3:0.5", "--out", OUT),
    ("--help",),
    ("simulate", "--steps", "x", "--out", OUT),
)


def write_inputs(work: Path) -> None:
    """The seeded Haar, real orthogonal and cyclic flat coin files, a
    non-unitary one, and the malformed ones."""
    rng = np.random.default_rng(2012)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    haar = q * np.exp(-1j * np.angle(np.diag(r)))[None, :]
    orth, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    left, right = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(2, 3)))
    cyclic = left[:, None] * np.roll(np.eye(3), 1, axis=0) * right
    for name, matrix in (("haar", haar), ("orth", orth), ("cyclic", cyclic)):
        entries = [[float(z.real), float(z.imag)] for z in matrix.ravel()]
        (work / f"{name}.json").write_text(json.dumps(
            {"family": "custom", "parameter": None, "matrix": entries}))
    (work / "nonunitary.json").write_text(json.dumps(
        {"family": "custom", "parameter": None, "matrix": [[1.0, 0.0]] * 9}))
    for i, record in enumerate(MALFORMED):
        (work / f"malformed{i}.json").write_text(
            record if isinstance(record, str) else json.dumps(record))


def _digest(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def run_all(src: Path) -> dict[str, dict]:
    """Run every invocation against the package under ``src``."""
    src_text = str(src)
    sys.path.insert(0, src_text)
    from triwalk import cli

    if not cli.__file__.startswith(src_text):
        raise SystemExit(f"imported {cli.__file__}, not the tree under {src}")
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)

        def mask(text: str) -> str:
            return text.replace(tmp, WORK).replace(src_text, SRC)

        def in_process(argv: list[str]) -> tuple[int | str, str, str]:
            out, err = io.StringIO(), io.StringIO()
            # A fresh warnings context shows each warning once per
            # invocation, as a new process would.
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:
                    code = f"raised {type(exc).__name__}"
            return code, out.getvalue(), err.getvalue()

        # The child's piped stdout is block-buffered, as by default, so an
        # unflushed line would be missing from its digest.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src_text

        def child(argv: list[str]) -> tuple[int, str, str]:
            proc = subprocess.run(
                [sys.executable, "-m", "triwalk.cli", *argv], cwd=work,
                env=env, capture_output=True, text=True, timeout=600)
            return proc.returncode, proc.stdout, proc.stderr

        runs = [(("triwalk",), in_process, argv) for argv in invocations()]
        runs += [(("python", "-m", "triwalk.cli"), child, argv)
                 for argv in PROCESS]
        for prefix, run, argv in runs:
            code, out, err = run([a.replace(WORK, tmp) for a in argv])
            out_file = work / "out"
            manifest[" ".join((*prefix, *argv))] = {
                "exit": code,
                "stdout": _digest(mask(out)),
                "stderr": _digest(mask(err)),
                "out": _digest(out_file.read_bytes())
                if out_file.exists() else None,
            }
            out_file.unlink(missing_ok=True)
    return manifest


def diff(a: dict[str, dict], b: dict[str, dict]) -> list[str]:
    """One line per invocation that differs or is missing from a manifest."""
    lines = []
    for key in {**a, **b}:
        if key not in a or key not in b:
            lines.append(f"only in {'B' if key not in a else 'A'}: {key}")
        elif a[key] != b[key]:
            fields = [f for f in a[key] if a[key][f] != b[key].get(f)]
            lines.append(f"differs ({', '.join(fields)}): {key}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="source tree to import triwalk from "
                             "(default: this checkout's src/)")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="FILE", type=Path,
                        help="run the invocations and write their manifest")
    action.add_argument("--diff", nargs=2, metavar=("A", "B"), type=Path,
                        help="compare two manifests")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(p.read_text()) for p in args.diff)
        lines = diff(a, b)
        total = len({**a, **b})
        print(f"{total - len(lines)} of {total} identical")
        print("\n".join(lines), end="\n" if lines else "")
        return 1 if lines else 0
    start = time.perf_counter()
    manifest = run_all(Path(os.path.abspath(args.src)))
    args.write.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{len(manifest)} invocations in "
          f"{time.perf_counter() - start:.1f} s -> {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
