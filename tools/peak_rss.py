"""Run one effapprox command in-process and report its exit code, wall time
and peak resident set size.

    OPENBLAS_NUM_THREADS=1 python3 tools/peak_rss.py check problems/disk_three_objectives.json --k 3 --delta 0.1 --grid 1001

Run from the root of a checkout; the arguments are those of the
``effapprox`` command line.  The command's own output goes to the null
device, never into memory (pass ``--out`` to keep it).  One line follows on
stdout, and the script exits with the command's exit code:

    exit 0  wall 12.345 s  peak_rss 165.2 MB

``peak_rss`` is ``ru_maxrss / 1024`` of this process, as perfbench reports
it (Linux gives KiB), so it includes the interpreter and the imported
modules.
"""

from __future__ import annotations

import contextlib
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from effapprox import cli  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    start = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code or 0
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"exit {code}  wall {wall:.3f} s  peak_rss {peak:.1f} MB")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
