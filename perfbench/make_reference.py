"""Regenerate the oracle's reference outputs in ``perfbench/reference/``.

Run from the repository root::

    python3 perfbench/make_reference.py [WORKLOAD ...]

The stored references pin the program's results, so regenerate them only
for a change that alters results on purpose, and record that change in
CHANGES.md.  Each file keeps the commit it was generated from.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dpconsensus import cli  # noqa: E402

from perfbench import oracle  # noqa: E402
from perfbench.workloads import MASTER_SEEDS, WORKLOADS  # noqa: E402


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def reference_for(workload, master_seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(workload.argv(master_seed, out_dir))
        if code != 0:
            raise SystemExit(f"{workload.name} seed {master_seed}: exit code {code}")
        texts = [(out_dir / name).read_text() for name in workload.outputs]
    if workload.axis is not None:
        return oracle.sweep_record(*texts)
    record = oracle.audit_record(texts[0])
    problems = oracle.audit_invariants(record)
    if problems:
        raise SystemExit(f"{workload.name} seed {master_seed}: {problems}")
    return record


def main(names: list[str]) -> int:
    commit = _commit()
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        # One line per master seed keeps the file diffable.
        seeds = ",\n".join(
            f'  "{s}": {json.dumps(reference_for(workload, s), sort_keys=True)}' for s in MASTER_SEEDS
        )
        workload.reference_path().write_text(
            "{\n"
            f' "args": {json.dumps(list(workload.args))},\n'
            f' "generated_from_commit": {json.dumps(commit)},\n'
            f' "seeds": {{\n{seeds}\n }}\n'
            "}\n"
        )
        print(f"{name}: wrote {workload.reference_path().relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
