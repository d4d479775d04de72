"""Time a git revision and this checkout pass by pass, interleaved.

Usage::

    python tools/bench_interleaved.py REF N [--pairs P]

Extracts the tree of the git revision REF with ``git archive`` into a
temporary directory and starts one persistent worker process per tree, each
importing its own ``src/`` and its own ``perfbench/workloads.py``.  After one
warm-up pass of every workload on each side it runs P pairs (default 40).
A pair runs one pass of each benchmark workload on each side, back to back,
REF first in odd-numbered pairs and this checkout first in even-numbered
ones, so that the machine's load, which drifts over minutes, falls on both
sides alike.  Every ``GENERATION_PAIRS`` pairs both workers are replaced by
fresh, warmed-up processes: one process can run a workload a steady 1-2%
faster or slower than another process of the same tree for its whole life,
so a single pair of workers would carry that bias into every pair.  A pass
is one in-process ``dpconsensus.cli.main`` call with the workload's command
line (``--jobs 1``) at a master seed of the development group 42-51, the
same on both sides of a pair.  The two sides' output files are compared
byte for byte in every pair.

The record goes to ``BENCH_<N>_interleaved.json`` at the root of this
checkout: per workload, every pass's wall and CPU time on both sides, the
paired ratios change/parent of wall time with their median and quartiles,
a seeded bootstrap 95% interval of that median (resampling whole worker
generations, then pairs within them), the pairs the checkout wins with the
exact two-sided sign test's p-value on them (ties count for neither side;
the test takes pairs as independent), the median ratio of CPU time, and
the number of pairs whose outputs differ.  Each tree is named by its commit
and by a sha256 of its ``src/``, so a change with uncommitted edits is still
named by what ran.  Run with REF at the commit of this checkout (two copies
of one ``src/``) it measures the protocol's own resolution.

Exits 0 when the record is written, and 2 if the archive or a worker fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, commit_of, extract_tree, quartiles, src_digest

MASTER_SEEDS = tuple(range(42, 52))
GENERATION_PAIRS = 5
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 20191


def serve(tree: Path) -> None:
    """Worker loop: one pass per request line ``{"workload", "seed"}`` on
    stdin, answered by one line ``{"wall_s", "cpu_s", "digest"}``."""
    sys.path[:0] = [str(tree / "src"), str(tree)]
    import dpconsensus
    from dpconsensus import cli
    from perfbench.workloads import WORKLOADS

    source = Path(dpconsensus.__file__).resolve()
    if not source.is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"dpconsensus imported from {source}, not from {tree / 'src'}")
    answers = sys.stdout
    with tempfile.TemporaryDirectory(prefix="bench_interleaved_") as tmp:
        out_dir = Path(tmp)
        for line in sys.stdin:
            request = json.loads(line)
            workload = WORKLOADS[request["workload"]]
            for name in workload.outputs:
                (out_dir / name).unlink(missing_ok=True)
            gc.collect()
            usage = resource.getrusage(resource.RUSAGE_SELF)
            cpu0, wall0 = usage.ru_utime + usage.ru_stime, time.perf_counter()
            messages = io.StringIO()
            with contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
                code = cli.main(workload.argv(request["seed"], out_dir))
            wall = time.perf_counter() - wall0
            usage = resource.getrusage(resource.RUSAGE_SELF)
            digest = hashlib.sha256(str(code).encode())
            for name in workload.outputs:
                path = out_dir / name
                digest.update(path.read_bytes() if path.exists() else b"missing")
            answers.write(json.dumps({
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime - cpu0,
                "digest": digest.hexdigest(),
            }) + "\n")
            answers.flush()


class Worker:
    """A persistent ``serve`` process for one tree."""

    def __init__(self, tree: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(tree)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )

    def run(self, workload: str, seed: int) -> dict:
        self.process.stdin.write(json.dumps({"workload": workload, "seed": seed}) + "\n")
        answer = self.process.stdout.readline()
        if not answer:
            raise RuntimeError(f"worker exited with {self.process.wait()}")
        return json.loads(answer)

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):  # the worker may have died
            self.process.stdin.close()
        self.process.wait()


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``: the
    chance, if each were equally likely, of a split at least this uneven."""
    n, k = wins + losses, min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
    return min(1.0, 2.0 * tail)


def bootstrap_interval(ratios: list[float]) -> list[float]:
    """Percentile bootstrap 95% interval of the median of ``ratios``, in
    pair order, from ``BOOTSTRAP_RESAMPLES`` resamples drawn with a fixed
    seed.  A resample draws worker generations, ``GENERATION_PAIRS``
    consecutive pairs each, with replacement, then pairs within each drawn
    generation, so a bias that one pair of workers carries widens it."""
    draw = random.Random(BOOTSTRAP_SEED).choices
    generations = [
        ratios[i:i + GENERATION_PAIRS] for i in range(0, len(ratios), GENERATION_PAIRS)
    ]
    medians = sorted(
        statistics.median([
            r for pairs in draw(generations, k=len(generations)) for r in draw(pairs, k=len(pairs))
        ])
        for _ in range(BOOTSTRAP_RESAMPLES)
    )
    return [medians[int(0.025 * BOOTSTRAP_RESAMPLES)], medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1]]


def summarize(passes: dict[str, dict[str, list[dict]]]) -> dict:
    summary = {}
    for workload, sides in passes.items():
        parent, change = sides["parent"], sides["change"]
        ratios = [c["wall_s"] / p["wall_s"] for p, c in zip(parent, change)]
        wins, losses = sum(r < 1.0 for r in ratios), sum(r > 1.0 for r in ratios)
        summary[workload] = {
            "parent_median_s": statistics.median(p["wall_s"] for p in parent),
            "change_median_s": statistics.median(c["wall_s"] for c in change),
            "ratio_median": statistics.median(ratios),
            "ratio_quartiles": quartiles(ratios),
            "ratio_median_95_interval": bootstrap_interval(ratios),
            "change_better_pairs": wins,
            "sign_test_p": sign_test(wins, losses),
            "pairs": len(ratios),
            "cpu_ratio_median": statistics.median(
                c["cpu_s"] / p["cpu_s"] for p, c in zip(parent, change)
            ),
            "output_mismatches": sum(p["digest"] != c["digest"] for p, c in zip(parent, change)),
        }
    return summary


def main(ref: str, number: str, pairs: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        parent_commit, change_commit = commit_of(ref), commit_of("HEAD")
        dirty = bool(subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src", "perfbench"],
            capture_output=True, text=True, check=True,
        ).stdout.strip())
    except subprocess.CalledProcessError as exc:
        print(f"bench_interleaved: cannot resolve {ref}: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    passes = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench_interleaved_") as tmp:
        try:
            trees = {"parent": extract_tree(ref, Path(tmp)), "change": ROOT}
        except subprocess.CalledProcessError as exc:
            print(f"bench_interleaved: git archive {ref} failed: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        digests = {side: src_digest(tree) for side, tree in trees.items()}
        workers: dict[str, Worker] = {}
        try:
            for i in range(1, pairs + 1):
                if (i - 1) % GENERATION_PAIRS == 0:
                    for worker in workers.values():
                        worker.close()
                    workers = {side: Worker(tree) for side, tree in trees.items()}
                    for workload in workloads:  # warm-up, not recorded
                        for worker in workers.values():
                            worker.run(workload, MASTER_SEEDS[0])
                order = ("parent", "change") if i % 2 else ("change", "parent")
                seed = MASTER_SEEDS[(i - 1) % len(MASTER_SEEDS)]
                for workload in workloads:
                    for side in order:
                        passes[workload][side].append(workers[side].run(workload, seed))
                print(f"bench_interleaved: pair {i} of {pairs}", file=sys.stderr, flush=True)
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"bench_interleaved: a worker failed: {exc}", file=sys.stderr)
            return 2
        finally:
            for worker in workers.values():
                worker.close()
    record = {
        "command": f"python tools/bench_interleaved.py {ref} {number} --pairs {pairs}",
        "protocol": (
            f"{pairs} pairs of single in-process passes per workload in two persistent "
            f"workers, one per tree, replaced every {GENERATION_PAIRS} pairs and warmed up "
            "with one pass of each workload; parent first in odd-numbered pairs, change "
            "first in even-numbered ones; master seeds 42-51 in turn, the same on both "
            "sides of a pair"
        ),
        "parent_commit": parent_commit,
        "parent_src_sha256": digests["parent"],
        "change_commit": change_commit,
        "change_has_uncommitted_src": dirty,
        "change_src_sha256": digests["change"],
        "summary": summarize(passes),
        "passes": passes,
    }
    out = ROOT / f"BENCH_{number}_interleaved.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, row in record["summary"].items():
        print(
            f"{workload}: parent {row['parent_median_s'] * 1e3:.1f} ms, change "
            f"{row['change_median_s'] * 1e3:.1f} ms, ratio {row['ratio_median']:.3f} "
            f"[{row['ratio_quartiles'][0]:.3f}, {row['ratio_quartiles'][1]:.3f}], "
            f"95% interval [{row['ratio_median_95_interval'][0]:.3f}, "
            f"{row['ratio_median_95_interval'][1]:.3f}], "
            f"won {row['change_better_pairs']}/{row['pairs']} (sign test p "
            f"{row['sign_test_p']:.2g}), "
            f"{row['output_mismatches']} output mismatches",
            file=sys.stderr,
        )
    print(f"bench_interleaved: wrote {out.name}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--serve":
        serve(Path(sys.argv[2]))
        sys.exit(0)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare with, e.g. HEAD~1")
    parser.add_argument("number", help="names the record BENCH_<number>_interleaved.json")
    parser.add_argument("--pairs", type=int, default=40, help="pairs of passes per workload")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error(f"--pairs must be >= 2, got {args.pairs}")
    sys.exit(main(args.ref, args.number, args.pairs))
