"""One workload in one fresh process: set-up, then timed passes of the CLI.

``run.py`` starts this module as ``python3 -m perfbench.worker`` with
``src/`` on ``PYTHONPATH`` and reads the JSON object it prints last.  With
``--setup-only`` it measures set-up and exits.  Otherwise it runs passes of
``dpconsensus.cli.main`` until ``--seconds`` have elapsed, cycling through
the workload seed's master seeds, and checks every pass with the oracle.
The first master seed runs twice, so that replay is compared byte for byte
even in a run of few passes.  With ``--trace 1`` every master seed runs
twice, untraced then traced, so that both the per-layer table and the
tracing overhead come from the same process and the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import time
from pathlib import Path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True, help="checkout holding src/")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    from perfbench.workloads import WORKLOADS, seed_cycle

    workload = WORKLOADS[args.workload]
    cycle = seed_cycle(args.seed)
    import dpconsensus
    from dpconsensus import cli, experiments

    source = Path(dpconsensus.__file__).resolve()
    if not source.is_relative_to((args.root / "src").resolve()):
        raise SystemExit(f"dpconsensus imported from {source}, not from {args.root / 'src'}")
    preset = experiments.preset_sweep(workload.axis) if workload.axis else None
    out_dir = args.out_dir / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    argvs = {seed: workload.argv(seed, out_dir) for seed in cycle}
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from perfbench import oracle, spans

    references = json.loads(workload.reference_path().read_text())["seeds"]
    recorder = spans.SpanRecorder() if args.trace else None
    passes: list[dict] = []
    last_outputs: dict[int, dict] = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(passes)
        traced = recorder is not None and index % 2 == 1
        step = index // 2 if recorder is not None else max(index - 1, 0)
        seed = cycle[step % len(cycle)]
        for name in workload.outputs:
            (out_dir / name).unlink(missing_ok=True)
        gc.collect()
        restore = spans.install(recorder) if traced else None
        if traced:
            recorder.trace_id = index
        messages = io.StringIO()
        crash = None
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
                code = cli.main(argvs[seed])
        except Exception as exc:  # a crashing pass is a failed pass, not a failed benchmark
            code, crash = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
            if restore is not None:
                restore()
        outputs = {}
        for name in workload.outputs:
            path = out_dir / name
            outputs[name] = path.read_bytes() if path.exists() else None
        if crash is not None:
            problems = [crash]
        else:
            problems = oracle.check_pass(
                workload, code, outputs, last_outputs.get(seed), references[str(seed)], seed, preset
            )
            if code != 0:
                problems.append(messages.getvalue().strip()[-300:])
        last_outputs[seed] = outputs
        passes.append(
            {"master_seed": seed, "wall_s": wall, "cpu_s": cpu, "traced": traced, "problems": problems[:5]}
        )
        if time.perf_counter() >= deadline and (recorder is None or len(passes) >= 2):
            break

    import numpy as np

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": _blas(),
    }
    if recorder is not None:
        by_pass: dict[int, list] = {}
        for span in recorder.spans:
            by_pass.setdefault(span.trace_id, []).append(span)
        tables = [spans.layer_metrics(s) for s in by_pass.values()]
        layers = {key: statistics.median(t[key] for t in tables) for key in tables[0]}
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        plain_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
        layers["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        result["layers"] = layers
        spans_path = args.out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        recorder.write_jsonl_gz(spans_path)
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
