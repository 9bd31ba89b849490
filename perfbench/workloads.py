"""Seeded inputs, jobs and answer checks for the three benchmark workloads.

A workload is a list of strata.  Every round runs one job per stratum, so the
mix of job kinds is the same in every run and only the continuous parameters
inside a stratum come from the seed.  Round k of seed s is always the same
list of inputs, whatever the machine; the benchmark repeats rounds until its
time is used up.

Jobs call the library only through module attributes looked up at call time
(``conics.offset_poly_closed_form``, not a name bound at import), so the
traced run sees every call the job makes.

Each job returns a ``JobResult``.  ``output`` is the canonical byte string
that goes into the workload digest; ``errors`` lists the calls that raised;
``problems`` lists the checks that failed.  Checks run after the job's timer
has stopped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from conicoffset import cli, conics, curve, errors, groebner, mesh, poly
from conicoffset.fixtures import general_offset_poly

# Failures the benchmark expects at this commit, each matched only where it
# was seen.  They still count as failed jobs; they only keep ``correct`` true.
# Any other failure makes it false, and so does a known defect that fails a
# larger share of a run's jobs than given here (a few times what was seen).
KNOWN_DEFECT_4A = "ellipse r > a^2/b: TypeError mpf from mpc (ROADMAP 4a)"
KNOWN_DEFECT_VERTEX = ("trace_implicit: vertex residual between 1e-6 and "
                       "1e-3 max|coeff| on an ellipse or hyperbola figure")
KNOWN_DEFECT_MESH = ("generate_mesh: RootRefineError, ellipse with b/a >= 0.9 "
                     "and an offset >= 0.7 r_crit")
KNOWN_DEFECT_SHARE = {
    KNOWN_DEFECT_4A: 0.08,  # exact: 2 of the 28 jobs of every round
    KNOWN_DEFECT_VERTEX: 0.1,  # render: about 1 figure in 15, 1 job in 45
    KNOWN_DEFECT_MESH: 0.05,  # render: about 1 mesh in 100, 1 job in 140
}


@dataclass
class JobResult:
    output: bytes = b""
    errors: list = field(default_factory=list)  # (call, exception)
    problems: list = field(default_factory=list)  # (failed check, known defect or None)
    checks: object = None  # data the untimed check needs

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.problems)


class Job:
    """A job runs timed and is checked untimed; see the module docstring."""

    def known_defect(self, exc) -> str | None:
        """The known defect an exception raised by the job shows, if any."""
        return None


def _frac_arg(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


class Draws:
    """Seeded draws for one stratum in one round, spread evenly over rounds.

    The i-th draw of round k is frac(offset_i + k * alpha_i): a Weyl
    sequence whose offsets come from the seed.  Each value is uniform over
    its range, as a plain random draw would be, but the rounds of one run
    cover each range evenly, so the total cost of a run swings much less
    with the seed.  Same interface as the ``random.Random`` methods used here.
    """

    ALPHAS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19))

    def __init__(self, workload: str, seed: int, stratum: int, rnd: int):
        self._offsets = random.Random(f"{workload}:{seed}:{stratum}")
        self._rnd = rnd
        self._dim = 0

    def random(self) -> float:
        alpha = self.ALPHAS[self._dim % len(self.ALPHAS)]
        self._dim += 1
        return (self._offsets.random() + self._rnd * alpha) % 1.0

    def randint(self, lo: int, hi: int) -> int:
        return lo + int(self.random() * (hi - lo + 1))

    def choice(self, seq):
        return seq[int(self.random() * len(seq))]


def _between(rng: Draws, lo: Fraction, hi: Fraction) -> Fraction:
    """A random rational strictly inside (lo, hi), with the smallest
    denominator that stays near a uniform draw: small numbers keep the cost
    of the exact layer from swinging with the bit size of r."""
    u = lo + (hi - lo) * Fraction(rng.randint(50, 950), 1000)
    for den in range(1, 1000):
        r = u.limit_denominator(den)
        if lo < r < hi:
            return r
    return u


def _small(rng: Draws, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 4)))


def _central(rng, kind: str):
    """Random a > b > 0 with small numerators, as a ConicSpec."""
    b = _small(rng, 2, 12)
    a = b + _small(rng, 1, 8)
    maker = conics.ConicSpec.ellipse if kind == "ellipse" else conics.ConicSpec.hyperbola
    return maker(a, b)


def _parabola(rng: Draws):
    p = _small(rng, 1, 8)
    return conics.ConicSpec.parabola(p if rng.random() < 0.5 else -p)


def _r_crit(conic) -> Fraction:
    # the benchmark's own critical offset: 2|p| or b^2/a
    if conic.kind == "parabola":
        return 2 * abs(conic.param_map()["p"])
    pm = conic.param_map()
    return pm["b"] ** 2 / pm["a"]


def _offset(rng: Draws, conic, regime: str) -> Fraction:
    """An offset in the named regime of the conic.

    sub: (0, rc); crit: rc; super: (rc, 2 rc) for the parabola;
    far: (2 rc, 6 rc) for the parabola; rc-b, b-a, a-a2b, above-a2b: the
    intervals between r_crit, b, a and a^2/b for the central conics.
    """
    rc = _r_crit(conic)
    if regime == "sub":
        return _between(rng, Fraction(0), rc)
    if regime == "crit":
        return rc
    if regime == "super":
        return _between(rng, rc, 2 * rc)
    if regime == "far":
        return _between(rng, 2 * rc, 6 * rc)
    pm = conic.param_map()
    a, b = pm["a"], pm["b"]
    bounds = {"rc-b": (rc, b), "b-a": (b, a), "a-a2b": (a, a * a / b),
              "above-a2b": (a * a / b, 2 * a * a / b)}
    lo, hi = bounds[regime]
    return _between(rng, lo, hi)


def eval_xy(g, xs, ys) -> np.ndarray:
    """The benchmark's own evaluator: sum of c * x^i * y^j over numpy arrays.

    Independent of the library's evaluators; used only by the checks.
    """
    ix, iy = g.ring.index("x"), g.ring.index("y")
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    out = np.zeros_like(xs)
    for m, c in g.terms.items():
        out += float(c) * xs ** m[ix] * ys ** m[iy]
    return out


def _defect_4a(conic, r, exc) -> str | None:
    pm = conic.param_map()
    if (isinstance(exc, TypeError) and "cannot create mpf from mpc" in str(exc)
            and conic.kind == "ellipse" and r > pm["a"] ** 2 / pm["b"]):
        return KNOWN_DEFECT_4A
    return None


# ---------------------------------------------------------------------------
# exact: four CLI calls per job on one rational conic and offset
# ---------------------------------------------------------------------------

# two jobs per central stratum put the median inside the central conics'
# jobs rather than in the gap between them and the cheaper parabolas
EXACT_STRATA = (
    [("parabola", reg) for reg in ("sub", "crit", "super", "far")]
    + 2 * [(kind, reg) for kind in ("ellipse", "hyperbola")
           for reg in ("sub", "crit", "rc-b", "b-a", "a-a2b", "above-a2b")]
)

EXACT_CALLS = (
    ("offset-poly", "--method", "closed", "--json"),
    ("offset-poly", "--method", "elim", "--json"),
    ("singular", "--method", "closed", "--format", "json"),
    ("singular", "--method", "elimination", "--format", "json"),
)


@dataclass(frozen=True)
class ExactJob(Job):
    conic: object
    r: Fraction

    def argv_tail(self):
        # --name=value, since a negative p would otherwise read as a flag
        flags = [f"--{k}={_frac_arg(v)}" for k, v in self.conic.params]
        return ["--conic", self.conic.kind, *flags, f"--r={_frac_arg(self.r)}"]

    def run(self) -> JobResult:
        res = JobResult(checks=[])
        pieces = []
        for call in EXACT_CALLS:
            argv = [call[0], *self.argv_tail(), *call[1:]]
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as exc:  # the job records every crash
                res.errors.append((" ".join(call), exc))
                pieces.append(f"raised {type(exc).__name__}\n")
                res.checks.append(None)
                continue
            text = buf.getvalue()
            if code != 0:
                res.errors.append((" ".join(call), RuntimeError(f"exit {code}")))
            pieces.append(text)
            res.checks.append(text if code == 0 else None)
        res.output = "".join(pieces).encode()
        return res

    def check(self, res: JobResult) -> None:
        closed, elim, sing_c, sing_e = res.checks
        if closed is not None and elim is not None:
            g_c = poly.poly_from_dict(json.loads(closed)["g"])
            g_e = poly.poly_from_dict(json.loads(elim)["g"])
            if g_c != g_e:
                res.problems.append(("closed-form g differs from elimination g", None))
        rc = _r_crit(self.conic)
        regime = "subcritical" if self.r < rc else "critical" if self.r == rc \
            else "supercritical"
        reports = [json.loads(t) for t in (sing_c, sing_e) if t is not None]
        for rep in reports:
            if rep["regime"] != regime:
                res.problems.append((f"regime {rep['regime']} != {regime}", None))
            if any(p["residual_grad"] > 1e-9 for p in rep["points"]):
                res.problems.append(("gradient residual above 1e-9", None))
        if len(reports) == 2:
            pa, pb = (sorted((p["y_float"], p["x_float"]) for p in rep["points"])
                      for rep in reports)
            if len(pa) != len(pb):
                res.problems.append((f"singular routes count {len(pa)} vs {len(pb)}", None))
            elif any(abs(u - v) > 1e-9 * max(1.0, abs(u))
                     for s, t in zip(pa, pb) for u, v in zip(s, t)):
                res.problems.append(("singular routes disagree beyond 1e-9", None))

    def known_defect(self, exc) -> str | None:
        return _defect_4a(self.conic, self.r, exc)


def exact_round(seed: int, rnd: int) -> list:
    jobs = []
    for i, (kind, regime) in enumerate(EXACT_STRATA):
        rng = Draws("exact", seed, i, rnd)
        conic = _parabola(rng) if kind == "parabola" else _central(rng, kind)
        jobs.append(ExactJob(conic, _offset(rng, conic, regime)))
    return jobs


# ---------------------------------------------------------------------------
# symbolic: lex bases of the envelope ideal with parameters left symbolic
# ---------------------------------------------------------------------------

# The family "ellipse with a fixed, b and r symbolic" is left out: its lex run
# did not finish within 9 minutes, far beyond one job's budget.
# A round has three cheap jobs (parabola, r and b fixed) and four costly ones.
# Three jobs of each r-and-b family put the median well inside those jobs,
# not at the cheap edge of the costly ones, where it jumped with the seed.
SYMBOLIC_STRATA = (
    ("parabola", ()), ("ellipse", ()), ("hyperbola", ()),
    ("ellipse", ("r",)), ("hyperbola", ("r",)),
) + 3 * (("ellipse", ("r", "b")), ("hyperbola", ("r", "b")))


@dataclass(frozen=True)
class SymbolicJob(Job):
    kind: str
    fixed: tuple  # ((name, Fraction), ...) substituted before the run

    def run(self) -> JobResult:
        ideal = conics.build_ideal(self.kind)
        values = dict(self.fixed)
        gens = [poly.substitute(g, values) for g in ideal.generators] \
            if values else list(ideal.generators)
        ring = gens[0].ring
        order = poly.lex(ring)
        gb = groebner.reduce_basis(groebner.buchberger(
            groebner.Ideal(ring, gens), order, max_degree=60))
        kept = groebner.elimination_ideal(gb, set(ring) - {"y0", "x0"})
        text = "\n".join(poly.poly_dumps(p, order) for p in gb.polys)
        return JobResult(output=text.encode(), checks=(gb, kept))

    def check(self, res: JobResult) -> None:
        gb, kept = res.checks
        lms = [poly.leading_term(p, gb.order)[0] for p in gb.polys]
        if any(i != j and all(u <= v for u, v in zip(m, n))
               for i, m in enumerate(lms) for j, n in enumerate(lms)):
            res.problems.append(("a leading monomial divides another", None))
        if not kept:
            res.problems.append(("empty elimination ideal", None))
        # the closed-form fixture, specialized like the ideal, times the
        # parameter prefactor (p, or a^2 b^2 for the symbolic semi-axes)
        # lies in the ideal
        fixture = general_offset_poly(self.kind)
        values = {k: v for k, v in self.fixed if k in fixture.ring}
        g = poly.substitute(fixture, values) if values else fixture
        ring = gb.order.variables
        lifted = poly.MultiPoly(ring, {
            tuple(m[g.ring.index(v)] if v in g.ring else 0 for v in ring): c
            for m, c in g.terms.items()})
        pre = tuple((1 if v == "p" else 2) if v in ("p", "a", "b") else 0
                    for v in ring)
        lifted = lifted * poly.MultiPoly(ring, {pre: Fraction(1)})
        rem, _ = poly.reduce(lifted, list(gb.polys), gb.order)
        if not rem.is_zero():
            res.problems.append(("closed-form fixture does not reduce to zero", None))


def symbolic_round(seed: int, rnd: int) -> list:
    jobs = []
    for i, (kind, names) in enumerate(SYMBOLIC_STRATA):
        rng = Draws("symbolic", seed, i, rnd)
        fixed = tuple((n, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                      for n in names)
        jobs.append(SymbolicJob(kind, fixed))
    return jobs


# ---------------------------------------------------------------------------
# render: offset figures interleaved with layered meshes
# ---------------------------------------------------------------------------

FIGURE_STRATA = tuple((kind, reg) for kind in ("parabola", "ellipse", "hyperbola")
                      for reg in ("sub", "crit", "super"))
MESHES_PER_FIGURE = 2  # keeps the median inside the mesh jobs
VERTEX_TOL = 1e-6  # times max|coeff|, the bound trace_implicit documents
LAYER_TOL = 1e-8  # the bound verify_mesh applies


@contextlib.contextmanager
def _recording(module, name):
    """Record (args, result) of every call to ``module.name`` while open.

    The library looks the function up at call time, so the job gets hold of
    the objects a call made without computing them a second time.
    """
    fn, calls = getattr(module, name), []

    def recorder(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, out))
        return out
    setattr(module, name, recorder)
    try:
        yield calls
    finally:
        setattr(module, name, fn)


@dataclass(frozen=True)
class FigureJob(Job):
    """One ``offset_figure`` call; the two traces it draws are checked."""

    conic: object
    r: Fraction
    resolution: int

    def run(self) -> JobResult:
        with _recording(curve, "trace_implicit") as traces:
            svg = curve.offset_figure(self.conic, self.r, resolution=self.resolution)
        return JobResult(output=svg.encode(), checks=traces)

    def check(self, res: JobResult) -> None:
        for (p, *_), traced in res.checks:
            pts = [q for pl in traced.polylines for q in pl]
            if not pts:
                res.problems.append(("empty trace", None))
                continue
            vals = eval_xy(p, [q.x for q in pts], [q.y for q in pts])
            worst = float(np.max(np.abs(vals))) / curve.max_abs_coeff(p)
            if not worst <= VERTEX_TOL:
                res.problems.append((f"traced vertex residual {worst:.2e}",
                                     self.vertex_defect(worst)))

    def vertex_defect(self, worst: float) -> str | None:
        # seen only on ellipses and hyperbolas, at most a few 1e-4
        if self.conic.kind != "parabola" and worst <= 1e-3:
            return KNOWN_DEFECT_VERTEX
        return None

    def known_defect(self, exc) -> str | None:
        return _defect_4a(self.conic, self.r, exc)


@dataclass(frozen=True)
class MeshJob(Job):
    ellipse: object
    offsets: tuple
    stations: tuple

    def run(self) -> JobResult:
        spec = mesh.MeshSpec(ellipse=self.ellipse, offsets=self.offsets,
                             y_stations=self.stations)
        m = mesh.generate_mesh(spec)
        text = mesh.export_mesh(m)
        return JobResult(output=text.encode(), checks=m)

    def check(self, res: JobResult) -> None:
        m = res.checks
        rows, cols = 2 * len(self.offsets) + 1, 2 * len(self.stations) + 2
        if (m.rows, m.cols, len(m.flat_nodes())) != (rows, cols, rows * cols):
            res.problems.append((f"mesh shape {m.rows}x{m.cols}", None))
            return
        pm = self.ellipse.param_map()
        a, b = float(pm["a"]), float(pm["b"])
        signed = [-o for o in reversed(self.offsets)] + [0.0] + list(self.offsets)
        worst = 0.0
        for s, row in zip(signed, m.nodes):
            xs, ys = np.array([p.x for p in row]), np.array([p.y for p in row])
            if s == 0.0:
                res_row = np.abs((xs / b) ** 2 + (ys / a) ** 2 - 1)
            else:
                g = conics.offset_poly_closed_form(
                    self.ellipse, Fraction(repr(abs(s)))).g
                res_row = np.abs(eval_xy(g, xs, ys)) / curve.max_abs_coeff(g)
            worst = max(worst, float(np.max(res_row)))
        if not worst <= LAYER_TOL:
            res.problems.append((f"mesh layer residual {worst:.2e}", None))

    def known_defect(self, exc):
        pm = self.ellipse.param_map()
        if (isinstance(exc, errors.RootRefineError) and pm["b"] / pm["a"] >= 0.9
                and self.offsets[-1] >= 0.7 * float(_r_crit(self.ellipse))):
            return KNOWN_DEFECT_MESH
        return None


MESH_OFFSETS, MESH_STATIONS = 4, 6  # one size, so mesh jobs cost alike


def _mesh_job(rng) -> MeshJob:
    ellipse = _central(rng, "ellipse")
    pm = ellipse.param_map()
    rc, a = float(_r_crit(ellipse)), float(pm["a"])
    k, n = MESH_OFFSETS, MESH_STATIONS
    offsets = sorted(rng.sample(range(1, 20), k))
    offsets = tuple(float(f"{rc * i / 20:.4g}") for i in offsets)
    stations = sorted(rng.sample(range(1, 24), n), reverse=True)
    stations = tuple(float(f"{a * (i - 12) / 12.5:.4g}") for i in stations)
    return MeshJob(ellipse, offsets, stations)


def render_round(seed: int, rnd: int) -> list:
    jobs = []
    meshes = random.Random(f"render:{seed}:{rnd}")
    for idx, (kind, regime) in enumerate(FIGURE_STRATA):
        rng = Draws("render", seed, idx, rnd)
        conic = _parabola(rng) if kind == "parabola" else _central(rng, kind)
        if regime == "super" and kind != "parabola":
            # the whole supercritical range that exact covers; an ellipse
            # above a^2/b fails with ROADMAP 4a here too
            pm = conic.param_map()
            r = _between(rng, _r_crit(conic), 2 * pm["a"] ** 2 / pm["b"])
        else:
            r = _offset(rng, conic, regime)
        jobs.append(FigureJob(conic, r, (256, 512)[(idx + rnd) % 2]))
        jobs.extend(_mesh_job(meshes) for _ in range(MESHES_PER_FIGURE))
    return jobs


WORKLOADS = {
    "exact": exact_round,
    "symbolic": symbolic_round,
    "render": render_round,
}
