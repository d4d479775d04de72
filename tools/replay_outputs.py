"""Write a fixed set of CLI outputs to a directory, to compare two checkouts.

Usage::

    PYTHONPATH=<checkout>/src python tools/replay_outputs.py OUTDIR

Runs ``dpconsensus.cli.main`` in-process for every command below and
writes their 232 output files into OUTDIR, which must be empty or missing:

* each of the five preset sweeps at master seeds 42-61, as
  ``sweep_<axis>_<seed>.csv`` and ``sweep_<axis>_<seed>.summary.json``;
* each preset sweep again at master seed 42 with ``--jobs 2`` and with
  ``--jobs 3``, which split its 20 seeds between two worker processes
  (10/10) and three (6/7/7), as ``sweep_<axis>_42_jobs<k>.csv`` and its
  ``.summary.json``;
* ``run``, ``schedule``, ``schedule --T 200``, ``bound``, ``bound --T 200``
  and ``audit --T 100 --samples 2000``, at the default master seed 42;
* the top-level ``--help`` and each command's ``--help``, as ``help.txt``
  and ``help_<command>.txt``, printed at ``COLUMNS=80`` because argparse
  wraps help to the terminal's width.

``dpconsensus`` is imported from ``PYTHONPATH``, so the same script
replays any checkout.  To check that a change keeps every output
byte-identical, replay the parent and the change into two directories and
compare them::

    PYTHONPATH=parent/src python tools/replay_outputs.py /tmp/before
    PYTHONPATH=src python tools/replay_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after

The script takes no options: the command list is the comparison.  It
takes about 35 s on one core of a 2-CPU x86-64 machine.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

from dpconsensus.cli import main

AXES = ("T", "epsilon", "delta_family", "p_c", "points_per_node")
SWEEP_SEEDS = range(42, 62)
# (output file name, CLI arguments before --output)
SINGLE_COMMANDS = (
    ("run.csv", ["run"]),
    ("schedule.csv", ["schedule"]),
    ("schedule_T200.csv", ["schedule", "--T", "200"]),
    ("bound.json", ["bound"]),
    ("bound_T200.json", ["bound", "--T", "200"]),
    ("audit_T100.json", ["audit", "--T", "100", "--samples", "2000"]),
)
# (output file name, CLI arguments before --help)
HELP_PAGES = (
    ("help.txt", []),
    *((f"help_{name}.txt", [name]) for name in ("run", "schedule", "sweep", "audit", "bound")),
)


def commands(outdir: Path):
    """Every CLI argument list the replay runs, each with its ``--output``."""
    for axis in AXES:
        for seed in SWEEP_SEEDS:
            out = outdir / f"sweep_{axis}_{seed}.csv"
            yield ["sweep", "--axis", axis, "--seed", str(seed), "--output", str(out)]
        for jobs in ("2", "3"):
            out = outdir / f"sweep_{axis}_{SWEEP_SEEDS[0]}_jobs{jobs}.csv"
            yield ["sweep", "--axis", axis, "--seed", str(SWEEP_SEEDS[0]), "--jobs", jobs,
                   "--output", str(out)]
    for name, args in SINGLE_COMMANDS:
        yield [*args, "--output", str(outdir / name)]


def run(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit status and what it printed to stdout; the
    ``SystemExit`` that ``--help`` raises gives the status instead."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, printed.getvalue()


def replay(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        print(f"replay: {outdir} is not empty", file=sys.stderr)
        return 1
    os.environ["COLUMNS"] = "80"  # the width argparse wraps help to
    pages = [([*args, "--help"], outdir / name) for name, args in HELP_PAGES]
    for argv, page in [*((argv, None) for argv in commands(outdir)), *pages]:
        status, printed = run(argv)
        if status != 0:
            print(f"replay: {' '.join(argv)} exited with {status}", file=sys.stderr)
            return status
        if page is not None:
            page.write_text(printed)
    written = sum(1 for path in outdir.iterdir() if path.is_file())
    print(f"replay: wrote {written} files to {outdir}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    sys.exit(replay(Path(sys.argv[1])))
