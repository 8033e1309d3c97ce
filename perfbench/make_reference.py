"""Write ``reference.json``: the values the benchmark checks outputs against.

Run once, from the root of a checkout of the commit whose outputs are the
reference (the benchmark's checks are only as good as that commit):

    python3 perfbench/make_reference.py

It records ``rho`` of the psi-k4 run, every certified bound of the
small-sdps workload and the region workload's ``rho`` and containment
counts.  None of these depend on the seed.  Never edit the file by hand to
make a run pass.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    ref = {}

    psi = workloads.WORKLOADS["psi-k4"]
    inputs = psi.prepare(ROOT, 0, workdir)
    if psi.run(inputs) != 0:
        raise SystemExit("psi-k4 run failed")
    with open(inputs["out"], encoding="utf-8") as fh:
        ref["psi-k4"] = {"rho": json.load(fh)["rho"]}
    inputs["out"].unlink()

    small = workloads.WORKLOADS["small-sdps"]
    inputs = small.prepare(ROOT, 0, workdir)
    inputs["sdps"] = []
    bounds, _ = small.run(inputs)
    ref["bounds"] = {}
    for (fname, order), out in zip(small.bound_labels(inputs), bounds):
        if isinstance(out, Exception):
            raise SystemExit(f"bounds {fname} order {order}: {out!r}")
        ref["bounds"].setdefault(fname, {})[order] = {
            "lower": [float(v) for v in out.lower],
            "upper": [float(v) for v in out.upper],
        }

    region = workloads.WORKLOADS["region"]
    inputs = region.prepare(ROOT, 0, workdir)
    inputs["objectives"] = []
    result, report, _, _ = region.run(inputs)
    if isinstance(result, Exception) or isinstance(report, Exception):
        raise SystemExit(f"region run failed: {result!r} {report!r}")
    ref["region"] = {
        "rho": result.rho,
        "region_count": report.region_count,
        "reference_count": report.reference_count,
    }

    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
