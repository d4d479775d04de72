"""Replay the CLI outputs of a git revision and of this checkout, and compare.

Usage::

    python tools/replay_against.py REF

Extracts ``src/`` of the git revision REF (for example ``HEAD~1``) with
``git archive`` into a temporary directory, then runs this checkout's
``tools/replay_outputs.py`` twice, side by side: once with ``PYTHONPATH``
at REF's ``src`` and once at this checkout's ``src``.  The two output sets
are compared byte for byte.  Every file that differs, or that only one
side wrote, is named.  Exits 0 only if every file matches, 1 if any does
not, and 2 if the archive or a replay fails.

Both replays write to the temporary directory, which is removed at exit.
The script takes no options.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPLAY = ROOT / "tools" / "replay_outputs.py"


def extract_src(ref: str, dest: Path) -> Path:
    """``src/`` of revision ``ref``, extracted under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
        capture_output=True,
        check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def start_replay(src: Path, outdir: Path) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, str(REPLAY), str(outdir)],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def compare(before: Path, after: Path) -> tuple[int, list[str]]:
    """The number of files either side wrote, and one line per file that
    differs or that only one side has."""
    names = sorted({p.name for p in before.iterdir()} | {p.name for p in after.iterdir()})
    problems = []
    for name in names:
        old, new = before / name, after / name
        if not old.is_file():
            problems.append(f"only in this checkout: {name}")
        elif not new.is_file():
            problems.append(f"only in the reference: {name}")
        elif old.read_bytes() != new.read_bytes():
            problems.append(f"differs: {name}")
    return len(names), problems


def main(ref: str) -> int:
    with tempfile.TemporaryDirectory(prefix="replay_against_") as tmp:
        tmp = Path(tmp)
        try:
            ref_src = extract_src(ref, tmp / "ref")
        except subprocess.CalledProcessError as exc:
            print(f"replay_against: git archive {ref} failed: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        before, after = tmp / "before", tmp / "after"
        replays = {
            ref: start_replay(ref_src, before),
            "this checkout": start_replay(ROOT / "src", after),
        }
        failed = False
        for label, proc in replays.items():
            _, err = proc.communicate()
            if proc.returncode != 0:
                print(f"replay_against: the replay of {label} exited with "
                      f"{proc.returncode}:\n{err}", file=sys.stderr)
                failed = True
        if failed:
            return 2
        total, problems = compare(before, after)
        for line in problems:
            print(line)
        if problems:
            print(f"replay_against: {len(problems)} of {total} files do not match {ref}")
            return 1
        print(f"replay_against: all {total} files identical to {ref}")
        return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
