"""Run-to-run spread of the end-to-end metrics over several workload seeds.

Run from the repository root::

    python3 perfbench/spread.py --workload sweep_epsilon --runs 10 [--first-seed 0]
    python3 perfbench/spread.py --workload all --runs 10 --compare .perfbench_out/spread/earlier.json

Runs ``run.py --trace 0`` once per seed, one run at a time, and for every
end-to-end metric prints the median and the quartile spread
``(q3 - q1) / median`` (quartiles from ``statistics.quantiles(n=4)``) next
to the metric's bound in BENCHMARK.json.  A spread above a third of the
bound is flagged, except for ``setup_s``, whose spread is not bounded.
``--compare`` also reports how far each median moved, in the worse
direction, from an earlier file this script wrote, against the full bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--compare", type=Path, help="earlier output of this script")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    values: dict[str, dict[str, list[float]]] = {}
    worst = 0.0
    for workload in names:
        runs = [_run(workload, args.first_seed + i, bench["run_seconds"]) for i in range(args.runs)]
        values[workload] = {name: [r[name] for r in runs] for name in bounds}
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for name, spec in bounds.items():
            series = values[workload][name]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s":
                worst = max(worst, spread / spec["bound"])
                flag = "  ABOVE bound/3" if spread > spec["bound"] / 3 else ""
            line = f"  {name:<12} median {median:<12.6g} spread {spread:7.4f}  bound {spec['bound']}{flag}"
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                change = (median - before) / before * (1 if spec["better"] == "lower" else -1)
                line += f"  worse-by {change:+.4f}" + ("  ABOVE bound" if change > spec["bound"] else "")
            print(line)
    out_dir = ROOT / ".perfbench_out" / "spread"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{args.workload}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(values, indent=1) + "\n")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}; values in {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
