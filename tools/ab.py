"""A/B timing of one command line between two source trees.

Runs ``python -m triwalk.cli ARGS`` as child processes of each ``--src``
tree in turn, pair after pair, the tree that goes first alternating from
pair to pair, with ``PYTHONDONTWRITEBYTECODE=1`` so every start compiles
the package alike.  For each tree it prints the median, quartiles and
minimum wall time, the median CPU time of each child (user plus system),
the median of each child's own peak RSS, and the length of the tree's
path (the heap layout of a child, and so its peak, can move with that
length; compare trees whose paths are equally long).  Then it prints in
how many pairs the second tree was faster, and in how many it used less
CPU.

    python tools/ab.py --src PARENT/src --src CHANGE/src --pairs 30 -- \\
        sweep --family c1 --points 50 --out /tmp/ab.csv

The CPU time is ``ru_utime + ru_stime`` and the peak RSS ``ru_maxrss``,
both from the ``os.wait4`` that reaps the child.  A child's count starts
at the size of the process that spawned it, so this tool imports only the
standard library: it stays smaller than any child, and the number read is
the child's own peak.  One untimed start of each tree comes first, and a
child that exits nonzero ends the run.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path


def run(src: str, args: list[str]) -> tuple[float, float, float]:
    """One child of tree ``src``: its wall seconds, its CPU seconds and its
    own peak RSS (MB)."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryFile() as err:
        actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable,
                             [sys.executable, "-m", "triwalk.cli", *args],
                             env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            sys.exit(f"{src}: exit {code}\n"
                     + err.read().decode("utf-8", "replace"))
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a source tree; give exactly two")
    parser.add_argument("--pairs", type=int, default=30,
                        help="timed pairs (default 30)")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="the command line, after --")
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    if len(opts.src) != 2 or not args or opts.pairs < 2:
        parser.error("need two --src trees, --pairs >= 2 and a command")
    trees = [str(Path(s).resolve()) for s in opts.src]
    for src in trees:
        run(src, args)
    walls, cpus, peaks = ([], []), ([], []), ([], [])
    for pair in range(opts.pairs):
        for t in (0, 1) if pair % 2 == 0 else (1, 0):
            wall, cpu, peak = run(trees[t], args)
            walls[t].append(wall)
            cpus[t].append(cpu)
            peaks[t].append(peak)
    print("command: " + " ".join(args))
    for t, src in enumerate(trees):
        q1, _, q3 = statistics.quantiles(walls[t], n=4)
        print(f"tree {'AB'[t]}: {src} (path length {len(src)})")
        print(f"  wall s: median {statistics.median(walls[t]):.4f}, quartiles "
              f"{q1:.4f}-{q3:.4f}, min {min(walls[t]):.4f}")
        print(f"  CPU s: median {statistics.median(cpus[t]):.4f}")
        print(f"  own peak RSS MB: median {statistics.median(peaks[t]):.2f}")
    won = sum(b < a for a, b in zip(*walls))
    print(f"B faster in {won} of {opts.pairs} pairs")
    won = sum(b < a for a, b in zip(*cpus))
    print(f"B used less CPU in {won} of {opts.pairs} pairs")


if __name__ == "__main__":
    main()
