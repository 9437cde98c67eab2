"""Benchmark of the triwalk command line, end to end and by layer.

Usage (from the repository root)::

    python3 bench/run.py --workload long-walk --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it runs the working tree's CLI as child processes
(``python -m triwalk.cli`` with ``src/`` on ``PYTHONPATH``, since the package
need not be installed), times them with tracing off and prints the
end-to-end metrics.  With ``--trace 1`` it runs the same invocations in this
process with spans around the calls into each module (see ``spans.py``) and
prints the per-layer metrics.  Every output file is checked against an
independent reference (see ``reference.py``); an invocation fails on a
nonzero exit code or a failed check.

Every line but the last is for people: the run's environment and each metric
by name with its unit.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run's records and
spans are also written under ``bench/out/``.

The benchmark never passes ``--threads`` and removes ``TRIWALK_THREADS`` from
the children's environment, so the sweep's default thread count is measured
and the same invocations stay valid once that option is gone.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 5          # interpreter starts per set-up metric; the median counts
SETUP_BETWEEN = 1       # more starts for setup_s after each untraced pass
MIN_PASSES = 3          # untraced passes per run, whatever --seconds says
DEADLINE_S = 170.0      # every child is killed after this much of the run
EIGENSYSTEM_REPS = 51   # calls of eigensystem_of on the Haar coin
EIGVEC_REPS = 3         # dispersion calls with and without eigenvectors


class BenchError(Exception):
    """The benchmark cannot run here (missing tree, broken set-up)."""


@dataclass
class Record:
    """One invocation: its time, peak memory and check outcome."""

    op: workloads.Op
    pass_no: int
    wall: float
    rss: int
    bytes_written: int
    check: ref.Check

    def as_dict(self) -> dict:
        return {"op": self.op.label, "pass": self.pass_no, "wall_s": self.wall,
                "max_rss_b": self.rss, "bytes_written": self.bytes_written,
                "ok": self.check.ok, "errors": self.check.errors,
                "diag": self.check.diag}


class Runner:
    """Starts Python children in the run's work directory under a deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "TRIWALK_THREADS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        # Children write no bytecode anywhere, so every start compiles the
        # package the same way whatever the caller's environment says.
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"

    def python(self, args: list[str]) -> tuple[int, float, os.struct_rusage, str]:
        """Run ``python args``: exit code, wall seconds, resource usage, output."""
        log = self.work / "child.log"
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work,
                                    env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage, log.read_text(
            encoding="utf-8", errors="replace")

    def setup(self, code: str, flags: tuple[str, ...] = (),
              runs: int = SETUP_RUNS) -> list[tuple[float, str]]:
        """Start the interpreter ``runs`` times on ``code``."""
        out = []
        for _ in range(runs):
            rc, wall, _, log = self.python([*flags, "-c", code])
            if rc != 0:
                raise BenchError(f"python -c {code!r} exited {rc}: {log[-2000:]}")
            out.append((wall, log))
        return out

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def check_output(op: workloads.Op, path: Path, rc: int, log: str) -> ref.Check:
    """The invocation's check; a nonzero exit or an unreadable file fails it."""
    if rc != 0:
        return ref.Check([f"exit code {rc}: {log.strip()[-500:]}"])
    try:
        return op.check(path)
    except Exception:  # malformed output is a failed operation, not a crash
        return ref.Check([f"unreadable output: {traceback.format_exc(limit=1)}"])


def run_passes(run_op, ops, seconds: float, runner: Runner,
               between=lambda: None) -> list[list[Record]]:
    """Repeat passes over ``ops`` (``MIN_PASSES`` at least) for ``seconds``.

    ``between`` runs after each pass, inside the measuring time.
    """
    passes: list[list[Record]] = []
    start = time.perf_counter()
    while True:
        passes.append([run_op(op, len(passes)) for op in ops])
        between()
        typical = sum(op_medians(passes))
        if runner.time_left() < 2.0 * typical:
            break
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + typical > seconds):
            break
    return passes


def op_medians(passes: list[list[Record]]) -> list[float]:
    """Median wall time of each invocation over the passes.

    Their sum is the time of a typical pass: a slow outlier in one pass does
    not move it, which matters for the sweep's noisy thread pool.
    """
    return [statistics.median(p[i].wall for p in passes) for i in range(len(passes[0]))]


def per_command(passes: list[list[Record]]) -> dict[str, float]:
    """Mean over each command's invocations of their median wall time."""
    by_cmd: dict[str, list[float]] = {}
    for r, wall in zip(passes[0], op_medians(passes)):
        by_cmd.setdefault(f"{r.op.command}_s", []).append(wall)
    return {name: statistics.fmean(walls) for name, walls in by_cmd.items()}


def run_child(runner: Runner, op: workloads.Op, pass_no: int) -> Record:
    """One invocation of the CLI as a child process, timed and checked."""
    path = runner.work / op.out
    path.unlink(missing_ok=True)
    rc, wall, usage, log = runner.python(["-m", "triwalk.cli", *op.argv(runner.work)])
    size = path.stat().st_size if path.exists() else 0
    return Record(op, pass_no, wall, usage.ru_maxrss * 1024, size,
                  check_output(op, path, rc, log))


def untraced(ops, seconds: float, runner: Runner) -> tuple[dict, list[Record]]:
    # Set-up starts are spread over the run, as the passes are, so that both
    # medians see the same drift in machine speed.
    setup: list[float] = []

    def start_up(runs: int = SETUP_BETWEEN) -> None:
        setup.extend(wall for wall, _ in runner.setup("import triwalk", runs=runs))

    start_up(SETUP_RUNS)
    passes = run_passes(lambda op, n: run_child(runner, op, n), ops, seconds,
                        runner, start_up)
    records = [r for p in passes for r in p]
    failed = sum(not r.check.ok for r in records)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(op_medians(passes)),
        "max_rss_mb": max(r.rss for r in records) / 2 ** 20,
    }
    extra = {"failed_frac": failed / len(records), "passes": len(passes),
             **per_command(passes)}
    return {"metrics": metrics, "extra": extra}, records


# --------------------------------------------------------------- traced run

def import_times(log: str) -> dict[str, float]:
    """Seconds ``import triwalk`` spends in numpy, scipy and everything else.

    Parses ``python -X importtime`` output, where an entry's children are
    printed before it, two spaces deeper.  Each subtree of the ``triwalk``
    import is charged to the first of numpy or scipy on its path (scipy's own
    numpy submodules count as scipy); triwalk is charged the rest.
    """
    stack: list[tuple[int, tuple]] = []
    for line in log.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        node = (name.strip(), int(cum) * 1e-6, [])
        while stack and stack[-1][0] > depth:
            node[2].append(stack.pop()[1])
        stack.append((depth, node))

    charged = {"numpy": 0.0, "scipy": 0.0}

    def charge(node) -> None:
        root = node[0].split(".")[0]
        if root in charged:
            charged[root] += node[1]
        else:
            for child in node[2]:
                charge(child)

    tree = next(n for _, n in stack if n[0] == "triwalk")
    charge(tree)
    return {"setup.numpy_s": charged["numpy"], "setup.scipy_s": charged["scipy"],
            "setup.triwalk_s": tree[1] - charged["numpy"] - charged["scipy"]}


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(trace: list[spans.Span], n: int, modules: dict, seed: int,
                  records: list[Record]) -> dict[str, float]:
    """Per-layer metrics per traced pass, plus the probes run with tracing off.

    Durations of spans in the sweep's worker threads add up, so a layer's
    time can exceed the wall time of the pass.
    """
    self_time = spans.self_times(trace)

    def named(name: str) -> list[spans.Span]:
        return [s for s in trace if s.name == name]

    def total(name: str) -> float:
        return sum(s.duration for s in named(name)) / n

    def own(selected) -> float:
        return sum(self_time[s.id] for s in selected) / n

    m: dict[str, float] = {}
    coins = [s for s in trace if s.layer == "coins" and "eigensystem" not in s.name]
    m["coins.construct_s"] = sum(s.duration for s in coins) / n
    m["coins.constructed"] = len(coins) / n
    haar = modules["coins"].Coin(workloads.draw_haar(seed))
    m["coins.eigensystem_of_s"] = _median_time(
        lambda: modules["coins"].eigensystem_of(haar), EIGENSYSTEM_REPS)

    disp = named("spectral.dispersion_numeric")
    pv = named("spectral.peak_velocities_numeric")
    m["spectral.dispersion_s"] = total("spectral.dispersion_numeric")
    floor = 0.0
    for s in disp:
        coin, samples, _ = s.info
        batch = ref.propagators(coin.matrix, np.arange(samples) * (2 * np.pi / samples))
        start = time.perf_counter()
        np.linalg.eigvals(batch)
        floor += time.perf_counter() - start
    m["spectral.eigvals_floor_s"] = floor / n
    m["spectral.tracking_s"] = m["spectral.dispersion_s"] - m["spectral.eigvals_floor_s"]
    m["spectral.group_velocity_s"] = total("spectral.group_velocity")
    m["spectral.stationary_point_s"] = total("spectral.stationary_point")
    m["spectral.peak_velocity_s"] = total("spectral.peak_velocities_numeric")
    m["spectral.refine_s"] = own(pv)
    m["spectral.point_max_s"] = max((s.duration for s in pv), default=0.0)
    busy = sum(s.duration for s in disp)
    m["spectral.samples_per_s"] = sum(s.info[1] for s in disp) / busy if busy else 0.0
    m["spectral.calls"] = sum(s.layer == "spectral" for s in trace) / n
    m["spectral.eigvec_pass_s"] = 0.0
    if disp:
        coin, samples, _ = disp[0].info
        dispersion = modules["spectral"].dispersion_numeric
        m["spectral.eigvec_pass_s"] = _median_time(
            lambda: dispersion(coin, samples, include_eigenvectors=True), EIGVEC_REPS
        ) - _median_time(lambda: dispersion(coin, samples), EIGVEC_REPS)

    steps = named("walk.step")
    step_busy = sum(s.duration for s in steps)
    sites = sum(s.info for s in steps)
    m["walk.evolve_s"] = total("walk.evolve")
    m["walk.site_steps"] = sites / n
    m["walk.site_steps_per_s"] = sites / step_busy if step_busy else 0.0
    # Computed, not measured: each step reads its (2t+1, 3) complex window
    # and writes the (2t+3, 3) one, 16 bytes per amplitude.
    m["walk.bytes_moved_computed"] = sum(48 * (2 * s.info + 2) for s in steps) / n
    m["walk.distribution_s"] = total("walk.probability_distribution")

    m["localization.origin_series_s"] = total("localization.origin_series")
    m["localization.flat_band_s"] = total("localization.flat_band_detect")
    m["localization.trapping_s"] = total("localization.trapping_estimate")

    m["cli.write_s"] = own(s for s in trace if s.name.startswith("cli.write"))
    m["cli.bytes_written"] = sum(r.bytes_written for r in records) / n
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = own(s for s in trace if s.layer == layer)

    def worst(key: str) -> float:
        values = [r.check.diag[key] for r in records if key in r.check.diag]
        return max(values, key=abs, default=0.0)

    m["spectral.velocity_err_max"] = worst("velocity_err")
    m["walk.norm_drift"] = worst("norm_drift")
    m["localization.trap_gap"] = worst("trap_gap")
    m["trace.spans"] = len(trace) / n
    return m


def traced(ops, seconds: float, seed: int, runner: Runner) -> tuple[dict, list[Record]]:
    metrics = {"setup.interpreter_s": statistics.median(
        wall for wall, _ in runner.setup("pass"))}
    parts = [import_times(log) for _, log in
             runner.setup("import triwalk", ("-X", "importtime"))]
    for key in parts[0]:
        metrics[key] = statistics.median(p[key] for p in parts)

    sys.path.insert(0, str(SRC))
    package = importlib.import_module("triwalk")
    modules = {layer: importlib.import_module(f"triwalk.{layer}")
               for layer in spans.LAYERS}
    tracer = spans.Tracer()
    tracer.install(modules, package)
    main = modules["cli"].main

    def run_op(op: workloads.Op, pass_no: int) -> Record:
        path = runner.work / op.out
        path.unlink(missing_ok=True)
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                rc = main(op.argv(runner.work))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            wall = time.perf_counter() - start
        size = path.stat().st_size if path.exists() else 0
        return Record(op, pass_no, wall, 0, size,
                      check_output(op, path, rc, log.getvalue()))

    # Untraced and traced in-process passes in pairs, the order flipping each
    # pair (untraced-traced, traced-untraced, ...) so that a steady drift in
    # machine speed cancels out of the overhead; two pairs at least.
    passes: dict[bool, list[list[Record]]] = {False: [], True: []}
    start = time.perf_counter()
    try:
        while True:
            for on in (False, True) if len(passes[True]) % 2 == 0 else (True, False):
                tracer.enabled = on
                passes[on].append([run_op(op, len(passes[on])) for op in ops])
            pair = sum(r.wall for on in passes for r in passes[on][-1])
            if runner.time_left() < 3.0 * pair:
                break
            if (len(passes[True]) >= 2
                    and time.perf_counter() - start + pair > seconds):
                break
    finally:
        tracer.enabled = False
        tracer.uninstall()

    traced_records = [r for p in passes[True] for r in p]
    metrics.update(layer_metrics(tracer.spans, len(passes[True]), modules, seed,
                                 traced_records))
    pv = [s for s in tracer.spans if s.name == "spectral.peak_velocities_numeric"]
    notes = {"slowest peak_velocities_numeric":
             max(pv, key=lambda s: s.duration).info} if pv else {}
    base = sum(op_medians(passes[False]))
    metrics["trace.overhead_frac"] = sum(op_medians(passes[True])) / base - 1.0
    spans.dump(tracer.spans, OUT / f"spans-{runner.work.name}.jsonl")
    return ({"metrics": metrics, "extra": {"passes": len(passes[True])}, "notes": notes},
            [r for p in passes[False] for r in p] + traced_records)


# ---------------------------------------------------------------- reporting

def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "machine": platform.machine()}


def unit_of(name: str, units: dict[str, str]) -> str:
    """Unit of a metric in BENCHMARK.json, or of a printed-only extra."""
    extra = {"failed_frac": "frac", "passes": "count"}
    return units.get(name) or extra.get(name) or "s"


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    if not (SRC / "triwalk" / "cli.py").is_file():
        print(f"bench: no triwalk source tree at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir()
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    try:
        # Warm-up start: fills the file cache and proves which tree runs.
        rc, _, _, log = runner.python(["-c", "import triwalk; print(triwalk.__file__)"])
        if rc != 0 or Path(log.strip().splitlines()[-1]).resolve().parent.parent != SRC:
            raise BenchError(f"cannot import triwalk from {SRC}: {log[-2000:]}")
        ops = workloads.build(args.workload, args.seed, work)
        if args.trace:
            result, records = traced(ops, args.seconds, args.seed, runner)
        else:
            result, records = untraced(ops, args.seconds, runner)
        defects = [run_child(runner, op, 0)
                   for op in workloads.known_defects(args.workload)]
        if args.trace:
            result["metrics"]["spectral.edge_velocity_err"] = max(
                (r.check.diag.get("velocity_err", 0.0) for r in defects), default=0.0)
        if sorted(result["metrics"]) != sorted(expected):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(result['metrics']) ^ set(expected))}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.check.ok for r in records)
    env = environment()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "why": why[args.workload], "env": env, **result,
              "records": [r.as_dict() for r in records],
              "known_defects": [r.as_dict() for r in defects]}
    (OUT / f"{work.name}.json").write_text(json.dumps(report, indent=1),
                                           encoding="utf-8")

    print(f"# workload {args.workload}: {why[args.workload]}")
    print(f"# env {json.dumps(env)}")
    failures: dict[str, int] = {}
    for r in records:
        if not r.check.ok:
            key = f"{r.op.label}: {'; '.join(r.check.errors)}"
            failures[key] = failures.get(key, 0) + 1
    for key, count in failures.items():
        print(f"# FAILED x{count} {key}")
    for r in defects:
        status = "still fails" if not r.check.ok else "now passes, move it into the workload"
        print(f"# KNOWN DEFECT, not counted ({status}) {r.op.label}: "
              f"{'; '.join(r.check.errors) or r.check.diag}")
    for key, value in result.get("notes", {}).items():
        print(f"# {key} {value}")
    for name in expected + list(result["extra"]):
        value = result["metrics"].get(name, result["extra"].get(name))
        print(f"{name:32s} {value:<24.10g} {unit_of(name, units)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": units[name]}
                    for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
