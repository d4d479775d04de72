"""Benchmark entry point: time ``dpconsensus`` CLI workloads end to end.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sweep_epsilon --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each run starts fresh worker processes (``perfbench/worker.py``) with the
checkout's ``src/`` on ``PYTHONPATH``: several that only measure set-up,
then one that times passes of the workload for ``--seconds`` and checks
every pass with the oracle.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer table from alternating traced and
untraced passes.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit and the environment.  A full record of the
run, per-pass times included, goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR_NAME = ".perfbench_out"
# Fresh processes that only measure set-up; the timing worker adds one more.
SETUP_PROBES = 8
# Time limit per workload, below the 180 s a run may take.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result; nothing is printed on stdout."""


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; even seeds use master seeds 42-51, odd ones 52-61")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():  # an exported checkout; do not report an enclosing repository
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads(nproc: int) -> int:
    try:
        requested = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        requested = nproc
    return max(1, min(requested, nproc))


class Runner:
    """Starts workers for one checkout and turns their reports into results."""

    def __init__(self, root: Path, seconds: float, deadline: float, units: dict[str, str]) -> None:
        self.root = root
        self.units = units
        self.seconds = seconds
        self.deadline = deadline
        self.out_dir = root / OUT_DIR_NAME
        self.nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        self.blas_threads = _blas_threads(self.nproc)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(BENCH_DIR.parent)]),
            OPENBLAS_NUM_THREADS=str(self.blas_threads),
        )

    def _worker(self, workload: str, seed: int, trace: int, setup_only: bool) -> dict:
        command = [
            sys.executable, "-m", "perfbench.worker",
            "--workload", workload, "--seed", str(seed), "--seconds", str(self.seconds),
            "--trace", str(trace), "--root", str(self.root), "--out-dir", str(self.out_dir),
        ]
        if setup_only:
            command.append("--setup-only")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the worker could start")
        try:
            # run() kills the worker and waits for it if the timeout expires.
            done = subprocess.run(
                command, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker for {workload} exceeded the run time limit") from exc
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"worker for {workload} exited with code {done.returncode}")
        return json.loads(lines[-1])

    def run(self, workload, seed: int, trace: int) -> dict:
        setups = [
            self._worker(workload.name, seed, trace, setup_only=True)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        report = self._worker(workload.name, seed, trace, setup_only=False)
        setups.append(report["setup_s"])
        passes = report["passes"]
        failed = sum(1 for p in passes if p["problems"])
        if trace:
            metrics = dict(report["layers"])
        else:
            wall = statistics.median(p["wall_s"] for p in passes)
            metrics = {
                "wall_s": wall,
                "items_per_s": workload.items / wall,
                "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": report["peak_rss_mb"],
            }
        env = {
            "commit": _commit(self.root),
            "src_sha256": _source_digest(self.root / "src"),
            "python": platform.python_version(),
            "numpy": report["numpy"],
            "blas": report["blas"],
            "nproc": self.nproc,
            "openblas_num_threads": self.blas_threads,
            "workload_seed": seed,
            "master_seeds": sorted({p["master_seed"] for p in passes}),
            "argv": list(workload.args),
            "items_per_pass": workload.items,
            "seconds": self.seconds,
        }
        return {
            "workload": workload.name,
            "trace": trace,
            "env": env,
            "attempted": len(passes),
            "failed": failed,
            "error_rate": failed / len(passes),
            "setup_samples_s": setups,
            "passes": passes,
            "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in metrics.items()},
            "spans_file": report.get("spans_file"),
        }


def _print_record(record: dict) -> None:
    env = record["env"]
    print(
        f"{record['workload']}: seed {env['workload_seed']} (master seeds {env['master_seeds']}), "
        f"{record['attempted']} passes, {record['failed']} failed, error_rate {record['error_rate']:g}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    for p in record["passes"]:
        for problem in p["problems"]:
            print(f"  FAILED PASS: {problem}")
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "dpconsensus" / "cli.py").is_file():
        print(f"error: no dpconsensus sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR.parent))
    from perfbench.spans import PER_LAYER
    from perfbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = dict(END_TO_END) | {name: unit for name, unit, _ in PER_LAYER}
    runner = Runner(root, args.seconds, started + RUN_LIMIT_S * len(names), units)
    records = []
    try:
        for name in names:
            record = runner.run(WORKLOADS[name], args.seed, args.trace)
            records.append(record)
            _print_record(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    results_dir = runner.out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for record in records:
        path = results_dir / f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
