"""conicoffset benchmark: one seeded workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

The launcher imports neither numpy nor the library.  It starts ``worker.py``
with ``src`` on PYTHONPATH and the numeric libraries' thread pools pinned to
one thread, and prints every metric by name and unit.  The last line of
stdout is the JSON result.  Exit code 2 means the source tree is missing, 1
that the worker failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("exact", "symbolic", "render")
DEADLINE_S = 170  # the whole run ends within this


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "conicoffset" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=DEADLINE_S)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if worker.returncode != 0 or not worker.stdout.strip():
        sys.stderr.write(worker.stderr)
        print(f"perfbench: worker exited {worker.returncode}", file=sys.stderr)
        return 1
    doc = json.loads(worker.stdout.strip().splitlines()[-1])
    metrics = doc["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={doc['rounds']}")
    print("environment " + json.dumps(doc["environment"], sort_keys=True))
    print(f"host speed scale = {doc['host_scale']:.4g} (job times below are "
          f"scaled towards the reference host speed; raw ones are in the record)")
    for name, value in metrics.items():
        note = ""
        if name == "job_ms_tail":
            t = doc["tail"]
            note = (f"  (p{t['percentile']:.1f} of the {t['jobs']} completed jobs, "
                    f"{t['beyond']} beyond)")
        print(f"{name} = {value:.6g} {unit[name]}{note}")
    f = doc["failures"]
    print(f"failed_share = {f['failed_share']:.6g} share  "
          f"({f['failed']} of {f['attempted']} jobs, {f['unexplained']} unexplained)")
    for cause, n in f["causes"].items():
        print(f"  failure cause ({n} jobs): {cause}")
    print(f"digest sha256 (round 0) = {doc['digest']}")
    print("record " + json.dumps(doc, sort_keys=True))
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
