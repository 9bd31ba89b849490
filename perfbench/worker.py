"""Benchmark worker: runs one workload in this process and prints one JSON line.

Started by ``run.py`` with ``src`` on PYTHONPATH and the numeric libraries'
thread counts pinned to 1.  One client runs a closed loop: each job starts
when the previous one and its untimed check have finished.

    python3 perfbench/worker.py --workload exact --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import conicoffset
from hostspeed import probe, scale
from tracing import Tracer
from workloads import KNOWN_DEFECT_SHARE, WORKLOADS, JobResult

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 12  # fresh interpreters per run, spread over its jobs
# Job seconds of one round at the reference host speed (see hostspeed).  A run
# of --seconds s does round(s / ROUND_S) rounds, at least one, however fast
# the host is: the same seed and seconds always give the same jobs, so the
# jobs attempted and failed repeat exactly, and so does the tail's percentile.
ROUND_S = {"exact": 2.6, "symbolic": 8.0, "render": 7.0}

# what every CLI call pays before it does any work
SETUP_CODE = """\
from time import perf_counter
t0 = perf_counter()
import conicoffset
from conicoffset import cli, fixtures
for kind in ("parabola", "ellipse", "hyperbola"):
    fixtures.general_offset_poly(kind)
cli.build_parser()
print(repr(perf_counter() - t0))
"""


def setup_once() -> float:
    """Seconds of set-up in a fresh interpreter with this one's environment."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


class Pass:
    """Timings, failures and the round-0 digest of one pass over rounds.

    Times are scaled towards the reference host speed by the probes taken in the
    same round (see hostspeed); ``raw=True`` gives them unscaled.
    """

    def __init__(self):
        self.jobs = []  # (round, seconds, completed: no call raised)
        self.probes: dict = {}  # round -> probe seconds, one after each job
        self.attempted = 0
        self.failed = 0
        self.causes: dict = {}  # cause -> failed jobs that show it
        self.unexplained = 0  # failures not due to a known defect
        self.busy = 0.0  # raw seconds inside jobs
        self.rounds = 0
        self.digest = hashlib.sha256()
        self.counters_round0 = None
        self.setup: list = []  # (raw set-up seconds, round it was taken in)

    def _scaled(self, raw: bool):
        factor = {r: 1.0 if raw else scale(ps) for r, ps in self.probes.items()}
        return [(s * factor[r], done) for r, s, done in self.jobs]

    def latencies(self, raw: bool = False) -> list:
        """Milliseconds of the completed jobs."""
        return [1000.0 * s for s, done in self._scaled(raw) if done]

    def jobs_per_s(self, raw: bool = False) -> float:
        """Completed jobs per second of job time; jobs that raised add their
        time but no job."""
        jobs = self._scaled(raw)
        return sum(done for _, done in jobs) / sum(s for s, _ in jobs)

    def host_scale(self) -> float:
        return statistics.median(scale(ps) for ps in self.probes.values())

    def known_defects_within_share(self) -> bool:
        """Whether each known defect fails at most its share of the jobs in
        KNOWN_DEFECT_SHARE, so a wider breakage does not pass as known."""
        return all(self.causes.get(cause, 0) <= share * self.attempted
                   for cause, share in KNOWN_DEFECT_SHARE.items())


def _record(p: Pass, job, res: JobResult, seconds: float, rnd: int):
    p.attempted += 1
    p.busy += seconds
    p.jobs.append((rnd, seconds, not res.errors))
    p.probes.setdefault(rnd, []).append(probe())
    if rnd == 0:
        p.digest.update(len(res.output).to_bytes(8, "big") + res.output)
    if not res.failed:
        return
    p.failed += 1
    causes = set()
    for call, exc in res.errors:
        cause = job.known_defect(exc)
        if cause is None:
            p.unexplained += 1
            cause = f"{call}: {type(exc).__name__}: {str(exc)[:100]}"
        causes.add(cause)
    for problem, known in res.problems:
        if known is None:
            p.unexplained += 1
        causes.add(known or f"check: {problem}")
    for cause in causes:
        p.causes[cause] = p.causes.get(cause, 0) + 1


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def run_pass(make_round, seed: int, rounds: int, tracer=None,
             setup_samples: int = 0) -> Pass:
    """Run rounds 0 to ``rounds - 1``.

    With ``setup_samples``, set-up is timed in that many fresh interpreters,
    spread evenly over the jobs (the first before job 0), so they meet the
    host in the states the jobs meet it in.
    """
    p = Pass()
    paused = tracer.paused if tracer else nullcontext
    plan = [make_round(seed, rnd) for rnd in range(rounds)]
    total = sum(map(len, plan))
    done = 0
    for rnd, jobs in enumerate(plan):
        for i, job in enumerate(jobs):
            if (len(p.setup) < setup_samples
                    and done * setup_samples >= len(p.setup) * total):
                p.setup.append((setup_once(), rnd))
            if tracer:
                tracer.job = (rnd, i)
            t0 = perf_counter()
            try:
                res = job.run()
            except Exception as exc:  # a crash is a failed job, not a crash of the run
                res = JobResult(errors=[("job", exc)])
            elapsed = perf_counter() - t0
            if res.checks is not None:
                with paused():
                    try:
                        job.check(res)
                    except Exception as exc:
                        res.problems.append(
                            (f"check raised {type(exc).__name__}: {exc}", None))
            _record(p, job, res, elapsed, rnd)
            done += 1
        if tracer and rnd == 0:
            p.counters_round0 = dict(tracer.counters)
        p.rounds += 1
    return p


def tail(latencies):
    """The highest percentile with at least 10 jobs beyond it: the 11th
    largest latency.  Returns (value, percentile, jobs beyond); a run of 10
    jobs or fewer falls back to the median."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return statistics.median(xs), 50.0, n // 2
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def environment() -> dict:
    import mpmath
    import numpy
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def failure_doc(p: Pass) -> dict:
    return {"attempted": p.attempted, "failed": p.failed,
            "failed_share": p.failed / p.attempted, "unexplained": p.unexplained,
            "causes": dict(sorted(p.causes.items()))}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    make_round = WORKLOADS[workload]
    rounds = rounds_for(workload, seconds)
    if not trace:
        p = run_pass(make_round, seed, rounds, setup_samples=SETUP_SAMPLES)
        value, q, beyond = tail(p.latencies())
        raw = p.latencies(raw=True)
        setup_raw = [s for s, _ in p.setup]
        setup_scaled = [s * scale(p.probes[r]) for s, r in p.setup]
        return {
            "correct": p.unexplained == 0 and p.known_defects_within_share(),
            "attempted": p.attempted,
            "failed": p.failed,
            "metrics": {
                "jobs_per_s": p.jobs_per_s(),
                "job_ms_p50": statistics.median(p.latencies()),
                "job_ms_tail": value,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup_scaled),
            },
            "raw": {"jobs_per_s": p.jobs_per_s(raw=True),
                    "job_ms_p50": statistics.median(raw),
                    "job_ms_tail": tail(raw)[0],
                    "setup_s": statistics.median(setup_raw)},
            "setup_runs_s": setup_raw,
            "host_scale": p.host_scale(),
            "job_seconds_raw": p.busy,
            "tail": {"percentile": q, "jobs": len(p.latencies()), "beyond": beyond},
            "failures": failure_doc(p),
            "rounds": p.rounds,
            "digest": p.digest.hexdigest(),
        }
    # an untraced pass over half the rounds, then the same rounds traced
    plain = run_pass(make_round, seed, max(1, rounds // 2))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(make_round, seed, plain.rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    c = traced.counters_round0
    layers = {k: v * traced.host_scale()
              for k, v in tracer.layer_ms(traced.attempted).items()}
    counters = {k: v for k, v in c.items() if k != "groebner.new_members"}
    counters["groebner.useful_reduction_ratio"] = (
        c["groebner.new_members"] / c["groebner.reductions"]
        if c["groebner.reductions"] else 0.0)
    counters["trace.overhead_share"] = 1.0 - traced.jobs_per_s() / plain.jobs_per_s()
    same = plain.digest.hexdigest() == traced.digest.hexdigest()
    return {
        "correct": (plain.unexplained == 0 and traced.unexplained == 0 and same
                    and plain.known_defects_within_share()
                    and traced.known_defects_within_share()),
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": {**layers, **counters},
        "failures": failure_doc(traced),
        "rounds": plain.rounds,
        "digest": plain.digest.hexdigest(),
        "host_scale": traced.host_scale(),
        "traced_digest_matches": same,
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(conicoffset.__file__).resolve().parents:
        print(f"conicoffset imported from {conicoffset.__file__}, not {src}",
              file=sys.stderr)
        return 2
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    doc["environment"] = environment()
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
