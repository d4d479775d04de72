"""Time a git revision and this checkout in alternating benchmark pairs.

Usage::

    python tools/bench_pairs.py REF N

Extracts the tree of the git revision REF (the parent of a change, for
example ``HEAD~1``) with ``git archive`` into a temporary directory, then
runs ``perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0``
ten times in REF's tree and ten times in this checkout, in alternating
pairs: REF first in odd-numbered runs, this checkout first in even-numbered
ones.  Each run uses the ``perfbench/`` of its own tree.  The record goes
to ``BENCH_<N>.json`` at the root of this checkout, in the schema of the
earlier ``BENCH_*.json`` files: per workload and end-to-end metric of
``BENCHMARK.json`` the runs of both sides, their medians and quartiles,
and the number of pairs the checkout wins, followed by every run's full
per-workload records.  Both trees are also named by a sha256 of their
``src/``, since ``change_commit`` names this checkout's ``HEAD`` even when
its ``src/`` has uncommitted edits.  N only names the file; the protocol takes no
options.  A full record takes about 25 minutes on two CPUs.

Exits 0 when the record is written, and 2 if the archive or a run fails.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = [
    "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "20", "--trace", "0"
]
PAIRS = 10


def extract_tree(ref: str, dest: Path) -> Path:
    """The tree of revision ``ref``, extracted under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def src_digest(tree: Path) -> str:
    """sha256 of every file under ``tree/src`` but compiled caches, each by
    its relative path and its bytes, in path order: names a tree whose
    ``src/`` has uncommitted edits by what ran."""
    digest = hashlib.sha256()
    src = tree / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def commit_of(ref: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def run_once(tree: Path, workloads: list[str]) -> dict:
    """One benchmark run in ``tree``: its full record per workload."""
    subprocess.run([sys.executable, *COMMAND], cwd=tree, check=True, stdout=subprocess.DEVNULL)
    results = tree / ".perfbench_out" / "results"
    return {
        name: json.loads((results / f"{name}-seed1-trace0.json").read_text())
        for name in workloads
    }


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: dict[str, dict], metrics: list[dict], workloads: list[str]) -> dict:
    summary = {}
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            sides = {
                side: [runs[side][str(i)][workload]["metrics"][name]["value"]
                       for i in range(1, PAIRS + 1)]
                for side in ("parent", "change")
            }
            lower = metric["better"] == "lower"
            summary[f"{workload}.{name}"] = {
                "parent_runs": sides["parent"],
                "change_runs": sides["change"],
                "parent_median": statistics.median(sides["parent"]),
                "change_median": statistics.median(sides["change"]),
                "parent_quartiles": quartiles(sides["parent"]),
                "change_quartiles": quartiles(sides["change"]),
                "change_better_pairs": sum(
                    (c < p) if lower else (c > p)
                    for p, c in zip(sides["parent"], sides["change"])
                ),
            }
    return summary


def failed_passes(side_runs: dict[str, dict]) -> str:
    records = [r for run in side_runs.values() for r in run.values()]
    return f"{sum(r['failed'] for r in records)} of {sum(r['attempted'] for r in records)}"


def machine(record: dict) -> str:
    env = record["env"]
    blas = env["blas"]
    return (
        f"{env['nproc']}-CPU {platform.system()} {platform.machine()}, Python {env['python']}, "
        f"numpy {env['numpy']}, {blas.get('name', 'BLAS')} {blas.get('version', '?')} "
        f"({env['openblas_num_threads']} threads)"
    )


def main(ref: str, number: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        parent_commit = commit_of(ref)
        change_commit = commit_of("HEAD")
    except subprocess.CalledProcessError as exc:
        print(f"bench_pairs: cannot resolve {ref}: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    runs: dict[str, dict] = {"parent": {}, "change": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        try:
            trees = {"parent": extract_tree(ref, Path(tmp)), "change": ROOT}
        except subprocess.CalledProcessError as exc:
            print(f"bench_pairs: git archive {ref} failed: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        digests = {side: src_digest(tree) for side, tree in trees.items()}
        for i in range(1, PAIRS + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                print(f"bench_pairs: run {i} of {PAIRS}, {side}", file=sys.stderr, flush=True)
                try:
                    runs[side][str(i)] = run_once(trees[side], workloads)
                except (subprocess.CalledProcessError, OSError) as exc:
                    print(f"bench_pairs: run {i} of the {side} failed: {exc}", file=sys.stderr)
                    return 2
    record = {
        "command": "python3 " + " ".join(COMMAND),
        "machine": machine(runs["change"]["1"][workloads[0]]),
        "protocol": (
            f"{PAIRS} runs per side in alternating pairs: parent first in odd-numbered runs, "
            "change first in even-numbered runs"
        ),
        "parent_commit": parent_commit,
        "parent_src_sha256": digests["parent"],
        "change_commit": change_commit,
        "change_src_sha256": digests["change"],
        "failed_passes": {side: failed_passes(runs[side]) for side in ("parent", "change")},
        "summary": summarize(runs, spec["end_to_end"], workloads),
        **runs,
    }
    out = ROOT / f"BENCH_{number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench_pairs: wrote {out.name}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1].startswith("-") or not sys.argv[2].isdigit():
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
