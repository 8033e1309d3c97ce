"""Run a fixed list of effapprox command lines in this checkout and in
another one, and compare their stdout, stderr and exit codes byte for byte.

    python3 tools/same_outputs.py OTHER_CHECKOUT

OTHER_CHECKOUT is the root of another checkout, such as a ``git archive``
of the parent commit.  Each command runs as ``python -m effapprox.cli`` from
the root of each checkout, on that checkout's ``src/`` and ``problems/``,
with OPENBLAS_NUM_THREADS=1 and its arguments passed as a list, not through
a shell.  The list:

- ``approx --certificate`` on disk_three_objectives k=4, dense and sparse,
  bicorn_rotated k=4, dense and sparse, ball_rational k=3 sparse and
  disk_rational k=3;
- ``bounds`` on each of the five shipped problems;
- CI's ``minimize`` on bicorn_rotated k=3;
- ``check`` and ``sample`` on disk_three_objectives k=2 at grid 101;
- six malformed flags (``--grid abc``, ``--tol abc``, ``--tol nan``,
  ``--tol 0``, ``--k 0``, ``--k x``), each of which exits 2.

The script prints the first command that differs, with the first line where
a stream differs, then one line

    commands 20  differences 0

and exits 1 if any command differs.  The commands run one at a time, each
checkout in turn: under a minute in all on one core of a 2-core VM.  -h or
--help prints this text; any other argument count exits 2.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DISK, BICORN = "problems/disk_three_objectives.json", "problems/bicorn_rotated.json"
PROBLEMS = ["ball_rational", "bicorn_rotated", "disk_quartic", "disk_rational",
            "disk_three_objectives"]
OBJECTIVE = "[[1.0,[2,0]],[1.0,[0,2]],[-2.0,[0,1]],[1.0,[0,0]]]"
COMMANDS = [
    *(["approx", path, "--k", k, "--mode", mode, "--certificate"] for path, k, mode in [
        (DISK, "4", "dense"), (DISK, "4", "sparse"), (BICORN, "4", "dense"),
        (BICORN, "4", "sparse"), ("problems/ball_rational.json", "3", "sparse"),
        ("problems/disk_rational.json", "3", "dense")]),
    *(["bounds", f"problems/{name}.json"] for name in PROBLEMS),
    ["minimize", BICORN, "--k", "3", "--delta", "0.05", "--objective", OBJECTIVE],
    ["check", DISK, "--k", "2", "--delta", "0.1", "--grid", "101"],
    ["sample", DISK, "--k", "2", "--delta", "0.1", "--grid", "101"],
    ["check", DISK, "--k", "2", "--delta", "0.1", "--grid", "abc"],
    *(["bounds", DISK, flag, value] for flag, value in [
        ("--tol", "abc"), ("--tol", "nan"), ("--tol", "0"), ("--k", "0"), ("--k", "x")]),
]
STREAMS = ("stdout", "stderr", "exit code")


def run(checkout: Path, argv: list[str]) -> tuple:
    """(stdout, stderr, exit code) of one command line in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "effapprox.cli", *argv], cwd=checkout,
                          env=env, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def difference(ours: tuple, theirs: tuple) -> str:
    """Where two results first differ: the stream and, for output, the line."""
    name, a, b = next(d for d in zip(STREAMS, ours, theirs) if d[1] != d[2])
    if name == "exit code":
        return f"exit code {a} here, {b} there"
    a, b = a.splitlines(), b.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    here, there = (lines[i] if i < len(lines) else b"<end>" for lines in (a, b))
    return f"{name} line {i + 1}: {here!r} here, {there!r} there"


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv and argv[0] in ("-h", "--help") else 2
    other, differences = Path(argv[0]).resolve(), 0
    for command in COMMANDS:
        ours, theirs = run(ROOT, command), run(other, command)
        if ours != theirs:
            if not differences:
                print(f"first difference: {' '.join(command)}\n  {difference(ours, theirs)}")
            differences += 1
    print(f"commands {len(COMMANDS)}  differences {differences}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
