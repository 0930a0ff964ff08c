"""End-to-end certification: CEGIS loop for the generator function, level
selection by binary search, final set queries and certificate emission.

The pipeline mirrors the simulate -> solve LP -> interval-check cycle.
Traces are integrated at SIM_STEP, the grid of the states the pipeline
reads: every SUBSAMPLE-th state (one each 0.1 s) gives LP rows, and the
states midway between them are falsified.  A batch too stiff for that
step is integrated again REFINE times finer, on the same read times.
Each stored derivative is f at its stored state, so the step moves only
where the rows lie.
Each LP candidate is first falsified by sampling: its Lie derivative is
evaluated on a fixed sample of D \\ X0 (FALSIFY_POINTS points, seeded by
the config seed) and on the trace states between the LP's rows.  Up to
MAX_CEX points where it is >= -gamma, worst first and CEX_SPREAD apart,
become the starts of fresh simulations, all in one batch, whose points
tighten the next LP.  Only a candidate that sampling cannot refute goes
to the decrease query, whose witness box is fed back the same way.
Sampling never certifies: a candidate leaves the loop only on the
query's UNSAT.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import symexpr as sx
from . import lpgen
from . import dsat
from . import simulate as sim
from ._version import __version__

GAMMA_DEFAULT = 1e-6
DELTA_DEFAULT = 1e-3

# The pipeline's fixed algorithm settings.
BISECTION_STEPS = 30       # level probes before select_level gives up
SIM_DURATION = 10.0        # length of every simulated trace
SIM_STEP = 0.05            # RK4 step: every state the pipeline reads
SUBSAMPLE = 2              # every SUBSAMPLE-th trace state gives LP rows
# Past SIM_STEP * stiffness = STIFF_LIMIT, just above the bundled loop's
# 0.47 at default speed and gain, a batch is integrated at 0.01 s instead.
STIFF_LIMIT = 0.5
REFINE = 5                 # SIM_STEP / REFINE: the finer step
EPS_POS = EPS_DEC = 1e-3   # LP margins of the value and decrease rows
CEX_SPREAD = 0.05          # counterexample jitter, fraction of width
FALSIFY_POINTS = 2000      # fixed sample of D \ X0 tried on every candidate
MAX_CEX = 8                # counterexample clusters simulated per round
ENCLOSING_INFLATION = 3.0  # enclosing box over the safe rectangle's radius


class NotEllipsoidError(ValueError):
    """Quadratic part of the candidate is not positive definite."""


@dataclass(frozen=True)
class SafetySpec:
    """Initial box, safe rectangle (U is its complement) and the derived
    search domain between them."""
    x0: sx.Box
    safe_rect: sx.Box

    def __post_init__(self):
        if self.x0.arity != self.safe_rect.arity:
            raise ValueError("X0 has arity %d, the safe rectangle %d"
                             % (self.x0.arity, self.safe_rect.arity))
        if not all(math.isfinite(v) for b in (self.x0, self.safe_rect)
                   for iv in b for v in (iv.lo, iv.hi)):
            raise ValueError("X0 and the safe rectangle must be bounded")
        for inner, outer in zip(self.x0, self.safe_rect):
            if not (outer.lo < inner.lo and inner.hi < outer.hi):
                raise ValueError("X0 must lie strictly inside the safe rectangle")

    @property
    def arity(self):
        return self.x0.arity

    def unsafe_halfspaces(self):
        """U as a disjunction of a.x >= b halfspaces (outside safe_rect)."""
        out = []
        n = self.arity
        for i in range(n):
            a = np.zeros(n)
            a[i] = 1.0
            out.append((a.copy(), self.safe_rect[i].hi))
            a[i] = -1.0
            out.append((a.copy(), -self.safe_rect[i].lo))
        return out

    def domain_minus_x0(self):
        """Slab decomposition of safe_rect \\ X0 into at most 2n boxes."""
        slabs = []
        for dim, (inner, outer) in enumerate(zip(self.x0, self.safe_rect)):
            # X0's extent below dim, the safe rectangle's above it.
            base = sx.Box(self.x0.intervals[:dim]
                          + self.safe_rect.intervals[dim:])
            slabs.append(base.replace(dim, sx.Interval(outer.lo, inner.lo)))
            slabs.append(base.replace(dim, sx.Interval(inner.hi, outer.hi)))
        return slabs

    def unsafe_slabs(self):
        """U within the enclosing box (ENCLOSING_INFLATION times the safe
        rectangle about its centre) as 2n slabs: slabs 2i and 2i+1 lie
        beyond the safe rectangle's upper and lower face in dimension i."""
        reach = [ENCLOSING_INFLATION * (0.5 * iv.width)
                 for iv in self.safe_rect]
        env = sx.Box(tuple(sx.Interval(iv.mid - r, iv.mid + r)
                           for iv, r in zip(self.safe_rect, reach)))
        return [env.replace(dim, iv)
                for dim, (safe, outer) in enumerate(zip(self.safe_rect, env))
                for iv in (sx.Interval(safe.hi, outer.hi),
                           sx.Interval(outer.lo, safe.lo))]

    def to_dict(self):
        return {"x0": [[iv.lo, iv.hi] for iv in self.x0],
                "safe_rect": [[iv.lo, iv.hi] for iv in self.safe_rect]}


def default_spec():
    """Case-study geometry: X0 = [-0.1,0.1]^2, safe rectangle
    [-1,1] x [-pi/2, pi/2]."""
    return SafetySpec(sx.box((-0.1, 0.1), (-0.1, 0.1)),
                      sx.box((-1.0, 1.0), (-math.pi / 2, math.pi / 2)))


@dataclass(frozen=True)
class CertifyConfig:
    """The settings a caller chooses, checked when it is built; the rest
    are module constants."""
    gamma: float = GAMMA_DEFAULT
    delta: float = DELTA_DEFAULT
    seed: int = 0
    max_iterations: int = 20
    n_seed_traces: int = 20

    def __post_init__(self):
        for name, ok in (("gamma", 0 < self.gamma < math.inf),
                         ("delta", 0 < self.delta < math.inf),
                         ("max_iterations", self.max_iterations >= 0),
                         ("n_seed_traces", self.n_seed_traces >= 1)):
            if not ok:
                raise ValueError(
                    "%s=%r: gamma and delta must be finite and > 0, "
                    "max_iterations >= 0 and n_seed_traces >= 1"
                    % (name, getattr(self, name)))


@dataclass
class QueryTranscript:
    name: str
    phi: dsat.Formula
    domains: list
    delta: float
    verdict: str
    witness: object
    boxes_explored: int
    wall_time: float

    @property
    def formula(self):
        """The formula's text, rendered when read."""
        return self.phi.to_text()

    def to_dict(self):
        return {
            "name": self.name,
            "formula": self.formula,
            "domains": [[[iv.lo, iv.hi] for iv in b] for b in self.domains],
            "delta": self.delta,
            "verdict": self.verdict,
            "witness": (None if self.witness is None
                        else [[iv.lo, iv.hi] for iv in self.witness]),
            "boxes_explored": self.boxes_explored,
            "wall_time": self.wall_time,
        }


@dataclass
class Certificate:
    candidate: lpgen.GeneratorCandidate
    level: float
    gamma: float
    delta: float
    transcripts: dict                  # name -> QueryTranscript
    spec: SafetySpec
    controller_hash: str
    iterations: int
    refuted: dict = None   # {"sampling": s, "dsat": d}: who refuted a round
    version: str = __version__

    def barrier_value(self, x):
        return self.candidate.value(x) - self.level

    def to_dict(self):
        cand = self.candidate
        return {
            "version": self.version,
            "generator": {
                "p_matrix": cand.p_matrix.tolist(),
                "q_vector": cand.q_vector.tolist(),
                "c": cand.c_scalar,
                "expr": sx.to_sexpr(cand.expr),
                "grad": [sx.to_sexpr(g) for g in cand.grad],
            },
            "level": self.level,
            "gamma": self.gamma,
            "delta": self.delta,
            "iterations": self.iterations,
            "refuted": self.refuted,
            "spec": self.spec.to_dict(),
            "controller_hash": self.controller_hash,
            "queries": {k: t.to_dict() for k, t in self.transcripts.items()},
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)


def load_certificate(path):
    """Read a file written by Certificate.save.  The candidate is rebuilt
    from p_matrix's upper triangle, q_vector and c, and the stored expr and
    grad must be the to_sexpr text of the rebuilt ones.  Raises ValueError
    when a field is missing, ill-typed, non-finite or inconsistent; queries
    are not re-run, and neither their formula text nor the version is
    read; the refuted counts are read when present."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        gen = data["generator"]
        p = np.array(gen["p_matrix"], dtype=float)
        q = np.array(gen["q_vector"], dtype=float)
        n = len(q)
        if not (p.shape == (n, n) and q.shape == (n,)
                and np.isfinite(p).all() and np.isfinite(q).all()
                and (p == p.T).all()):
            raise ValueError("generator p_matrix and q_vector do not "
                             "describe one quadratic")
        tmpl = lpgen.QuadraticTemplate(n)
        cand = lpgen.candidate_from(
            [p[i, j] for i, j in tmpl.pairs] + q.tolist() + [float(gen["c"])],
            tmpl)
        if (gen["expr"] != sx.to_sexpr(cand.expr)
                or gen["grad"] != [sx.to_sexpr(g) for g in cand.grad]):
            raise ValueError("generator expr or grad differs from the one "
                             "rebuilt from p_matrix, q_vector and c")
        spec = SafetySpec(sx.box(*data["spec"]["x0"]),
                          sx.box(*data["spec"]["safe_rect"]))
        level, gamma, delta = (float(data[k])
                               for k in ("level", "gamma", "delta"))
        if not all(map(math.isfinite, (level, gamma, delta))):
            raise ValueError("level, gamma and delta must be finite")
        refuted = data.get("refuted")    # absent from 0.2.0 files
        if refuted is not None:
            refuted = {k: int(refuted[k]) for k in ("sampling", "dsat")}
        return Certificate(cand, level, gamma, delta, {}, spec,
                           str(data["controller_hash"]),
                           int(data["iterations"]), refuted,
                           str(data.get("version", "?")))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError("malformed certificate %s: %s %s"
                         % (path, type(exc).__name__, exc)) from None


@dataclass
class Inconclusive:
    stage: str   # "arity" | "no_candidate" | "no_level" | "budget" |
                 # "simulation" | "lp" | "lp_unbounded"
    detail: str
    transcripts: dict = field(default_factory=dict)
    iterations: int = 0


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def lie_derivative(cand, f):
    """grad v . f as an Expr over the state variables."""
    acc = sx.mul(cand.grad[0], f.components[0])
    for i in range(1, cand.arity):
        acc = sx.add(acc, sx.mul(cand.grad[i], f.components[i]))
    return acc


def _query(name, lhs, rel, rhs, boxes, delta):
    """Exists x in one of boxes with lhs(x) rel rhs?  UNSAT iff every box is
    UNSAT; the first DELTA_SAT box (by index) gives the witness."""
    phi = dsat.Formula(boxes[0].arity, dsat.Constraint(lhs, rel, rhs))
    r = dsat.check(phi, list(boxes), delta)
    return QueryTranscript(name, phi, list(boxes), delta, r.verdict,
                           r.witness, r.boxes_explored, r.wall_time)


def query_decrease(cand, f, spec, gamma=GAMMA_DEFAULT, delta=DELTA_DEFAULT):
    """Exists x in D\\X0 with grad v . f(x) >= -gamma?  UNSAT certifies the
    decrease condition on the search domain."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return _query("decrease", lie_derivative(cand, f), ">=", -gamma,
                  spec.domain_minus_x0(), delta)


def query_init_containment(cand, level, x0, delta=DELTA_DEFAULT):
    """Exists x in X0 with v(x) - level > 0?  UNSAT certifies X0 within L.
    The strict relation is checked through its closed relaxation."""
    return _query("init_containment", cand.expr, ">=", level, [x0], delta)


def query_unsafe_disjoint(cand, level, spec, delta=DELTA_DEFAULT):
    """Exists x in U (within the enclosing search box) with v(x) <= level?
    UNSAT on spec.unsafe_slabs() certifies L and U disjoint."""
    return _query("unsafe_disjoint", cand.expr, "<=", level,
                  spec.unsafe_slabs(), delta)


# ---------------------------------------------------------------------------
# Level-set analytics
# ---------------------------------------------------------------------------

def halfspace_min(cand, a, b):
    """Exact minimum of v over the halfspace a.x >= b (P must be PD)."""
    from fractions import Fraction  # not at import: it loads decimal
    p = cand.p_matrix
    # Sylvester's criterion on the exact rationals of P's floats: the k-th
    # pivot of elimination is the k-th leading minor over the (k-1)-th.
    m = [[Fraction(v) for v in row] for row in p.tolist()]
    for k, pivot in enumerate(m):
        if pivot[k] <= 0:
            raise NotEllipsoidError("quadratic part is not positive definite")
        for row in m[k + 1:]:
            f = row[k] / pivot[k]
            row[:] = [x - f * y for x, y in zip(row, pivot)]
    a = np.asarray(a, dtype=float)
    x_star = np.linalg.solve(p, -0.5 * cand.q_vector)
    if a @ x_star >= b:
        return cand.value(x_star)
    # KKT minimum on the hyperplane a.x = b.
    p_inv_a = np.linalg.solve(p, a)
    lam = (2.0 * b + a @ np.linalg.solve(p, cand.q_vector)) / (a @ p_inv_a)
    x_min = np.linalg.solve(p, lam * a - cand.q_vector) / 2.0
    return cand.value(x_min)


def vertex_max(cand, x0):
    """Max of v over the 2^n vertices of the box."""
    best = -np.inf
    for corner in itertools.product(*[(iv.lo, iv.hi) for iv in x0]):
        best = max(best, cand.value(corner))
    return best


NO_LEVEL = None


def select_level(cand, spec, delta=DELTA_DEFAULT):
    """Binary search for a level with X0 inside L and L disjoint from U.

    Returns (level, transcripts), or (NO_LEVEL, transcripts) after
    BISECTION_STEPS rejected probes.  The feasible range is (vertex_max,
    min halfspace minimum); the vertex condition is necessary but not
    sufficient, so each probe is confirmed by both set queries.
    """
    vmax = vertex_max(cand, spec.x0)
    hmin = min(halfspace_min(cand, a, b) for a, b in spec.unsafe_halfspaces())
    transcripts = {}
    if not hmin > vmax:
        return NO_LEVEL, transcripts
    lo, hi = vmax, hmin
    for _ in range(BISECTION_STEPS):
        level = 0.5 * (lo + hi)
        t2 = query_init_containment(cand, level, spec.x0, delta)
        if t2.verdict != "UNSAT":
            lo = level          # L too small: grow it
            continue
        t3 = query_unsafe_disjoint(cand, level, spec, delta)
        if t3.verdict != "UNSAT":
            hi = level          # L touches U: shrink it
            continue
        transcripts["init_containment"] = t2
        transcripts["unsafe_disjoint"] = t3
        return level, transcripts
    return NO_LEVEL, transcripts


# ---------------------------------------------------------------------------
# CEGIS loop and the full pipeline
# ---------------------------------------------------------------------------

def find_generator(spec, f, config):
    """Iterate LP candidates against the decrease query, folding each
    round's counterexamples back in as fresh simulations.

    Each candidate is first falsified by sampling its Lie derivative; dsat
    runs only when sampling finds nothing, so a candidate is returned only
    on an exact UNSAT.  Returns (candidate, decrease_transcript,
    iterations, refuted), where refuted counts the rounds refuted by
    "sampling" and by "dsat", or raises NoCandidateError.  An exception
    that ends a round (one of _STAGES) carries the round's number as its
    `iteration`.
    """
    tmpl = lpgen.QuadraticTemplate(spec.arity)
    traces = _on_read_grid(lambda step: sim.seed_traces(
        f, spec.safe_rect, config.n_seed_traces, SIM_DURATION, step,
        config.seed, exclude=spec.x0))
    # Its own stream of config.seed, so the seed traces do not move.
    sample = sim.sample_box(
        np.random.default_rng(np.random.SeedSequence(config.seed,
                                                     spawn_key=(1,))),
        spec.safe_rect, FALSIFY_POINTS, exclude=spec.x0)
    lp_region = (spec.safe_rect, spec.x0)
    refuted = {"sampling": 0, "dsat": 0}
    iteration = 0
    try:
        for iteration in range(1, config.max_iterations + 1):
            lp = lpgen.build_constraints(traces, tmpl, EPS_POS, EPS_DEC,
                                         subsample=SUBSAMPLE,
                                         region=lp_region)
            sol = lpgen.solve_lp(lp)
            if sol is lpgen.INFEASIBLE or sol[-1] <= 0:
                raise NoCandidateError("LP %s at iteration %d" % (
                    "infeasible" if sol is lpgen.INFEASIBLE else
                    "margin nonpositive", iteration))
            cand = lpgen.candidate_from(sol[:-1], tmpl)
            # Trace states midway between the LP's rows, in its region.
            mid = np.concatenate([tr.states[SUBSAMPLE // 2::SUBSAMPLE]
                                  for tr in traces])
            cex = falsify(lie_derivative(cand, f), np.concatenate(
                [mid[lpgen.in_region(mid, lp_region)], sample]),
                spec, config.gamma)
            if cex:
                refuted["sampling"] += 1
            else:
                transcript = query_decrease(cand, f, spec, config.gamma,
                                            config.delta)
                if transcript.verdict == "UNSAT":
                    return cand, transcript, iteration, refuted
                refuted["dsat"] += 1
                cex = [transcript.witness.midpoint()]
            starts = [p for x in cex for p in _cex_cluster(x, spec)]
            traces.extend(_on_read_grid(lambda step: sim.simulate_batch(
                f, starts, SIM_DURATION, step)))
        raise NoCandidateError("no candidate within %d iterations"
                               % config.max_iterations)
    except tuple(_STAGES) as exc:
        exc.iteration = iteration   # the round that raised it
        raise


def _on_read_grid(integrate):
    """integrate(step), a batch of traces, on the SIM_STEP grid.

    When the batch diverges at SIM_STEP, or SIM_STEP times its stiffness
    exceeds STIFF_LIMIT, it is integrated again at SIM_STEP / REFINE and
    every REFINE-th state kept.  Raises SimulationDivergence when that
    diverges too.
    """
    try:
        traces = integrate(SIM_STEP)
        if SIM_STEP * sim.stiffness(traces) <= STIFF_LIMIT:
            return traces
    except sim.SimulationDivergence:
        pass
    return [sim.Trace(tr.times[::REFINE], tr.states[::REFINE],
                      tr.derivs[::REFINE])
            for tr in integrate(SIM_STEP / REFINE)]


def falsify(lie, points, spec, gamma):
    """Counterexamples to the decrease condition among `points`, an (m, n)
    array: those where `lie` is >= -gamma, worst first, at most MAX_CEX of
    them.  A point within CEX_SPREAD of one already taken, in every
    dimension as a fraction of the safe rectangle's width, is skipped:
    that one's cluster covers it."""
    values = sx.compile_expr(lie)(points.T)
    bad = np.flatnonzero(values >= -gamma)
    left = points[bad[np.argsort(-values[bad], kind="stable")]]
    reach = CEX_SPREAD * np.array([iv.width for iv in spec.safe_rect])
    taken = []
    while len(left) and len(taken) < MAX_CEX:
        taken.append(left[0])
        left = left[(np.abs(left - left[0]) >= reach).any(axis=1)]
    return taken


def _cex_cluster(cex, spec):
    """The counterexample plus axis-aligned neighbors.

    A lone trace head only refutes a tiny neighborhood, which lets the
    next witness crawl along a constraint boundary one delta-box at a
    time; jittered restarts knock out the whole stretch at once.
    """
    pts = [np.asarray(cex, dtype=float)]
    for dim, iv in enumerate(spec.safe_rect):
        for sign in (-1.0, 1.0):
            # cex lies in the safe rectangle, so only dim can leave it.
            p = np.array(cex, dtype=float)
            p[dim] = min(max(p[dim] + sign * CEX_SPREAD * iv.width, iv.lo),
                         iv.hi)
            if not spec.x0.contains(p):
                pts.append(p)
    return pts


class NoCandidateError(RuntimeError):
    """CEGIS loop exhausted without a checked generator function."""


# The failures that verify reports as Inconclusive, by stage.
_STAGES = {NoCandidateError: "no_candidate",
           dsat.BudgetExhausted: "budget",
           sim.SimulationDivergence: "simulation",
           lpgen.LPUnboundedError: "lp_unbounded",
           lpgen.PivotLimitError: "lp",
           NotEllipsoidError: "no_level"}


def verify(spec, f, config=None, controller_hash=""):
    """Full procedure; returns a Certificate or an Inconclusive record."""
    config = config or CertifyConfig()
    if spec.arity != f.arity:
        return Inconclusive("arity", "spec has arity %d, the field %d"
                            % (spec.arity, f.arity))
    transcripts, iterations = {}, 0
    try:
        cand, t1, iterations, refuted = find_generator(spec, f, config)
        transcripts["decrease"] = t1
        level, level_transcripts = select_level(cand, spec, config.delta)
    except tuple(_STAGES) as exc:
        stage = next(s for t, s in _STAGES.items() if isinstance(exc, t))
        # A failure in find_generator knows its round.
        return Inconclusive(stage, str(exc), transcripts,
                            getattr(exc, "iteration", iterations))
    if level is NO_LEVEL:
        return Inconclusive("no_level",
                            "no admissible level within bisection budget",
                            transcripts, iterations)
    transcripts.update(level_transcripts)
    return Certificate(cand, level, config.gamma, config.delta, transcripts,
                       spec, controller_hash, iterations, refuted)


# ---------------------------------------------------------------------------
# Independent numeric soundness oracle used by the test suite
# ---------------------------------------------------------------------------

ORACLE_BOUNDARY = 10_000   # points on the boundary of L
ORACLE_X0 = 10_201         # uniform points in X0, besides its 2^n vertices
ORACLE_UNSAFE = 163_216    # points in U, half on the safe rectangle's faces
ORACLE_CHUNK = 2_000       # boundary points per evaluation of grad v . f


def certificate_grid_oracle(cert, f):
    """Sampling cross-check of a certificate at any arity, by compile_expr
    programs at the points of one generator of seed 0.  Returns counts of
    "boundary" points of L (normal vectors scaled to the unit sphere, Muller
    1959, mapped through P's eigendecomposition) with grad v . f >= 0, of
    "x0" points with v > level, and of "unsafe" points with v <= level: an
    equal share in each slab of spec.unsafe_slabs(), one slab at a time,
    half of it on the slab's inner face, where a convex v is least.
    Raises ValueError when spec and field differ in arity."""
    spec, cand, level = cert.spec, cert.candidate, cert.level
    if spec.arity != f.arity:
        raise ValueError("spec arity %d, field arity %d"
                         % (spec.arity, f.arity))
    rng = np.random.default_rng(0)
    vfun = sx.compile_expr(cand.expr)
    lie = sx.compile_expr(lie_derivative(cand, f))
    x_star = np.linalg.solve(cand.p_matrix, -0.5 * cand.q_vector)
    evals, evecs = np.linalg.eigh(cand.p_matrix)
    dirs = rng.standard_normal((f.arity, ORACLE_BOUNDARY))
    radii = np.sqrt((level - cand.value(x_star)) / evals)
    boundary = (evecs @ (dirs * radii[:, None] / np.linalg.norm(dirs, axis=0))
                + x_star[:, None])
    # In chunks, so a wide controller's hidden layers stay small.
    boundary_bad = sum(int(np.sum(lie(boundary[:, i:i + ORACLE_CHUNK]) >= 0.0))
                       for i in range(0, ORACLE_BOUNDARY, ORACLE_CHUNK))
    x0 = np.concatenate([
        list(itertools.product(*[(iv.lo, iv.hi) for iv in spec.x0])),
        sim.sample_box(rng, spec.x0, ORACLE_X0)])
    x0_bad = int(np.sum(vfun(x0.T) > level))
    slabs = spec.unsafe_slabs()
    u_bad = 0
    for k, slab in enumerate(slabs):
        dim, below = divmod(k, 2)
        pts = sim.sample_box(rng, slab, ORACLE_UNSAFE // len(slabs))
        pts[::2, dim] = slab[dim].hi if below else slab[dim].lo
        u_bad += int(np.sum(vfun(pts.T) <= level))
    return {"boundary": boundary_bad, "x0": x0_bad, "unsafe": u_bad}
