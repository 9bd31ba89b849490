"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Checks, on tiny seeded runs:
  * the round-0 digest, the deterministic counters and the numbers of jobs
    attempted and failed repeat exactly across two invocations of run.py,
    for every workload;
  * every metric named in BENCHMARK.json is printed with its unit;
  * a deliberately corrupted check input is counted as a failed job and
    clears ``correct``.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

SEED = 7
# counters that depend on timing, not on the inputs
TIMED = ("_ms", "trace.overhead_share")

failures = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int) -> tuple:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run.py {workload} --trace {trace} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
    return lines, record, json.loads(lines[-1])


def test_repeatable_and_named():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            (lines, rec, res), (_, rec2, res2) = bench(workload, trace), bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(rec["digest"] == rec2["digest"], f"{tag}: digest repeats")
            expect((res["attempted"], res["failed"]) == (res2["attempted"], res2["failed"]),
                   f"{tag}: jobs attempted and failed repeat")
            want = {m["name"]: m["unit"] for m in named[str(trace)]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{tag}: every named metric, with its unit")
            printed = {ln.split(" = ")[0] for ln in lines if " = " in ln}
            expect(set(want) <= printed, f"{tag}: every metric printed by name")
            expect(res["correct"], f"{tag}: correct")
            if trace:
                counts = {k: v["value"] for k, v in res["metrics"].items()
                          if not k.endswith(TIMED)}
                counts2 = {k: v["value"] for k, v in res2["metrics"].items()
                           if not k.endswith(TIMED)}
                expect(counts == counts2, f"{tag}: deterministic counters repeat")
                expect(rec["traced_digest_matches"], f"{tag}: tracing keeps the outputs")


@dataclass(frozen=True)
class Corrupted:
    """A job whose check input is tampered with after it ran."""

    job: object
    tamper: object

    def run(self):
        res = self.job.run()
        self.tamper(res)
        return res

    def check(self, res):
        self.job.check(res)

    def known_defect(self, exc):
        return self.job.known_defect(exc)


def _bump_elim_g(res):
    doc = json.loads(res.checks[1])
    doc["g"]["terms"][0]["num"] = str(int(doc["g"]["terms"][0]["num"]) + 1)
    res.checks[1] = json.dumps(doc)


def _drop_eliminant(res):
    gb, kept = res.checks
    gb = workloads.groebner.GroebnerBasis(gb.order, tuple(p for p in gb.polys
                                                           if p not in kept))
    res.checks = (gb, kept)


def _move_node(res):
    m = res.checks
    row = list(m.nodes[1])
    row[0] = workloads.curve.Point2(row[0].x + 1e-3, row[0].y)
    res.checks = workloads.mesh.Mesh(nodes=(m.nodes[0], tuple(row)) + m.nodes[2:],
                                     quad4=m.quad4, quad9=m.quad9)


def _move_vertex(res):
    (args, traced), *rest = res.checks
    first, *others = traced.polylines
    q = first[0]
    moved = (workloads.curve.Point2(q.x + 1e-2, q.y), *first[1:])
    res.checks = [(args, replace(traced, polylines=(moved, *others))), *rest]


def test_corruption_is_counted():
    ellipse = workloads.conics.ConicSpec.ellipse(3, Fraction(3, 2))
    cases = {
        "exact": (workloads.ExactJob(ellipse, Fraction(1, 2)), _bump_elim_g),
        "symbolic": (workloads.SymbolicJob("parabola", ()), _drop_eliminant),
        "render figure": (workloads.FigureJob(ellipse, Fraction(1, 2), 256),
                          _move_vertex),
        "render mesh": (workloads.MeshJob(ellipse, (0.2, 0.5), (2.0, 0.0, -2.0)),
                        _move_node),
    }
    for name, (job, tamper) in cases.items():
        clean = run_pass(lambda s, r: [job], SEED, 1)
        bad = run_pass(lambda s, r: [Corrupted(job, tamper)], SEED, 1)
        expect(clean.failed == 0 and bad.failed == 1 and bad.unexplained == 1,
               f"{name}: corrupted check input counted in failed_share "
               f"({bad.failed}/{bad.attempted}, causes {sorted(bad.causes)})")


if __name__ == "__main__":
    test_corruption_is_counted()
    test_repeatable_and_named()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
