"""End-to-end certification: CEGIS loop for the generator function, level
selection by binary search, final set queries and certificate emission.

Traces are integrated at SIM_STEP (REFINE times finer when a batch is too
stiff for it, on the same read times): every SUBSAMPLE-th state gives LP
rows, and the states midway between them are falsified, each with its
stored derivative.  Each candidate's Lie derivative is first evaluated on
those midpoints and on a fixed, seeded sample of D \\ X0 (FALSIFY_POINTS
points, f on it once per call).  Up to MAX_CEX points where it is >=
-gamma, worst first and CEX_SPREAD apart, start fresh simulations, all in
one batch.  Only a candidate that sampling cannot refute goes to the
decrease query, whose witness is fed back the same way; sampling never
certifies.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import symexpr as sx
from . import lpgen
from . import dsat
from . import plant
from . import simulate as sim
from ._version import __version__
from .dsat import _is_count
from .lpgen import NotEllipsoidError
from .network import json_number, json_rows, read_json

GAMMA_DEFAULT = 1e-6
DELTA_DEFAULT = 1e-3

# The pipeline's fixed algorithm settings.
BISECTION_STEPS = 30       # level probes before select_level gives up
SIM_DURATION = 10.0        # length of every simulated trace
SIM_STEP = 0.05            # RK4 step: every state the pipeline reads
SUBSAMPLE = 2              # every SUBSAMPLE-th trace state gives LP rows
# Past SIM_STEP * stiffness = STIFF_LIMIT, just above the bundled loops'
# 0.44 at default speed and gain, a batch is integrated at 0.01 s instead.
STIFF_LIMIT = 0.5
REFINE = 5                 # SIM_STEP / REFINE: the finer step
EPS_POS = EPS_DEC = 1e-3   # LP margins of the value and decrease rows
CEX_SPREAD = 0.05          # counterexample jitter, fraction of width
FALSIFY_POINTS = 2000      # fixed sample of D \ X0 tried on every candidate
MAX_CEX = 8                # counterexample clusters simulated per round
ENCLOSING_INFLATION = 3.0  # enclosing box over the safe rectangle's radius


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
        (ilo, ihi), (olo, ohi) = self.x0.bounds.T, self.safe_rect.bounds.T
        if not np.isfinite([ilo, ihi, olo, ohi]).all():
            raise ValueError("X0 and the safe rectangle must be bounded")
        if not ((olo < ilo) & (ihi < ohi)).all():
            raise ValueError("X0 must lie strictly inside the safe rectangle")

    @property
    def arity(self):
        return self.x0.arity

    def domain_minus_x0(self):
        """Slab decomposition of safe_rect \\ X0 into 2n boxes: slabs 2i
        and 2i+1 lie below and above X0 in dimension i, within X0's extent
        in the dimensions before i and the safe rectangle's after it."""
        inner, outer = self.x0.bounds.tolist(), self.safe_rect.bounds.tolist()
        return [_slab(inner[:dim] + outer[dim:], dim, ends)
                for dim in range(self.arity)
                for ends in ((outer[dim][0], inner[dim][0]),
                             (inner[dim][1], outer[dim][1]))]

    def unsafe_slabs(self):
        """U within the enclosing box (ENCLOSING_INFLATION times the safe
        rectangle about its centre) as 2n slabs: slabs 2i and 2i+1 lie
        beyond the safe rectangle's upper and lower face in dimension i."""
        safe, env = self.safe_rect.bounds.tolist(), []
        for (lo, hi), mid in zip(safe, self.safe_rect.midpoint()):
            reach = ENCLOSING_INFLATION * (0.5 * (hi - lo))
            env.append((mid - reach, mid + reach))
        return [_slab(env, dim, ends) for dim in range(self.arity)
                for ends in ((safe[dim][1], env[dim][1]),
                             (env[dim][0], safe[dim][0]))]

    def to_dict(self):
        return {"x0": self.x0.bounds.tolist(),
                "safe_rect": self.safe_rect.bounds.tolist()}

    @classmethod
    def from_dict(cls, data):
        """The spec of a to_dict object: exactly the keys x0 and safe_rect,
        each a list of [lo, hi] rows of JSON numbers."""
        if not isinstance(data, dict) or set(data) != {"x0", "safe_rect"}:
            raise TypeError("spec %r is not an object with exactly the keys "
                            "x0 and safe_rect" % (data,))
        return cls(sx.box(*json_rows(data["x0"])),
                   sx.box(*json_rows(data["safe_rect"])))


def _slab(rows, dim, ends):
    """The box of the (lo, hi) rows with row dim replaced by ends."""
    return sx.box(*rows[:dim], ends, *rows[dim + 1:])


def default_spec():
    """Case-study geometry: X0 = [-0.1,0.1]^2, safe rectangle
    [-1,1] x [-pi/2, pi/2]."""
    return SafetySpec(sx.box((-0.1, 0.1), (-0.1, 0.1)),
                      sx.box((-1.0, 1.0), (-math.pi / 2, math.pi / 2)))


@dataclass(frozen=True)
class System:
    """The closed loop the pipeline certifies: the Dubins error dynamics
    of `params`, driven by `gain` times the controller's output, and its
    safety spec.  The defaults are the case study's."""
    controller: object                  # network.Network
    params: plant.DubinsParams = plant.DubinsParams()
    gain: float = 1.0
    spec: SafetySpec = default_spec()

    @cached_property
    def field(self):
        """The closed-loop VectorField, built on first use and kept, so
        its batched program is compiled once per system."""
        return plant.dubins_closed_loop(self.params, self.controller,
                                        gain=self.gain)

    @classmethod
    def from_dict(cls, data, controller):
        """The system a --system file's JSON object `data` describes,
        driven by `controller`.  Every key is optional, an absent one
        taking the default of System or DubinsParams: speed, path_angle
        and gain (JSON numbers), spec (as SafetySpec.from_dict reads it)
        and controller (the path `controller` was loaded from, which the
        caller resolves).  Raises KeyError for any other key, TypeError
        for a value of the wrong type, and ValueError as DubinsParams and
        SafetySpec do."""
        if not isinstance(data, dict):
            raise TypeError("%r is not a JSON object" % (data,))
        unknown = set(data) - {"speed", "path_angle", "gain", "spec",
                               "controller"}
        if unknown:
            raise KeyError("unknown keys %s" % ", ".join(sorted(unknown)))
        params = {k: json_number(data[k])
                  for k in ("speed", "path_angle") if k in data}
        loop = {}
        if "gain" in data:
            loop["gain"] = json_number(data["gain"])
        if "spec" in data:
            loop["spec"] = SafetySpec.from_dict(data["spec"])
        return cls(controller, plant.DubinsParams(**params), **loop)


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
        for name, ok in (("gamma", _is_positive(self.gamma)),
                         ("delta", _is_positive(self.delta)),
                         ("seed", _is_count(self.seed)),
                         ("max_iterations", _is_count(self.max_iterations)),
                         ("n_seed_traces", _is_count(self.n_seed_traces, 1))):
            if not ok:
                raise ValueError(
                    "%s=%r: gamma and delta must be finite numbers > 0, seed "
                    "and max_iterations integers >= 0 and n_seed_traces "
                    "an integer >= 1" % (name, getattr(self, name)))


@dataclass(frozen=True)
class QueryTranscript(dsat.DsatResult):
    """A dsat.check result, all its fields, and the query it answers:
    its name, its formula phi, the domains and delta."""
    name: str
    phi: dsat.Formula
    domains: list
    delta: float

    @property
    def formula(self):
        """The formula's text, rendered when read."""
        return self.phi.to_text()

    def to_dict(self):
        return {
            "name": self.name,
            "formula": self.formula,
            "domains": [b.bounds.tolist() for b in self.domains],
            "delta": self.delta,
            "verdict": self.verdict,
            "witness": (None if self.witness is None
                        else self.witness.bounds.tolist()),
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


def _is_positive(v):
    """Whether v is a real number, finite and > 0, no bool."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and 0 < v < math.inf)


def _count(v):
    """v, a JSON integer >= 0."""
    if not _is_count(v):
        raise TypeError("%r is not a count" % (v,))
    return v


def load_certificate(path):
    """Read a file written by Certificate.save.  The candidate is rebuilt
    from p_matrix's upper triangle, q_vector and c, and the stored expr and
    grad must be the to_sexpr text of the rebuilt ones.  Raises ValueError,
    naming the file, when it is not JSON, or a field is missing, ill-typed
    (json_number, counts >= 0), out of range (as CertifyConfig wants gamma
    and delta) or inconsistent.  Queries, formula text and version are not
    read; the refuted counts are, when present."""
    try:
        data = read_json(path)
        gen = data["generator"]
        spec = SafetySpec.from_dict(data["spec"])
        p = np.array(json_rows(gen["p_matrix"]))
        q = np.array([json_number(v) for v in gen["q_vector"]])
        n = spec.arity
        if not (p.shape == (n, n) and q.shape == (n,) and (p == p.T).all()):
            raise ValueError("generator p_matrix and q_vector do not "
                             "describe one quadratic in the spec's arity")
        tmpl = lpgen.QuadraticTemplate(n)
        cand = lpgen.candidate_from(
            [p[i, j] for i, j in tmpl.pairs] + q.tolist()
            + [json_number(gen["c"])], tmpl)
        if (gen["expr"] != sx.to_sexpr(cand.expr)
                or gen["grad"] != [sx.to_sexpr(g) for g in cand.grad]):
            raise ValueError("generator expr or grad differs from the one "
                             "rebuilt from p_matrix, q_vector and c")
        level, gamma, delta = (json_number(data[k])
                               for k in ("level", "gamma", "delta"))
        CertifyConfig(gamma, delta)     # raises unless finite and > 0
        refuted = data.get("refuted")    # absent from 0.2.0 files
        if refuted is not None:
            refuted = {k: _count(refuted[k]) for k in ("sampling", "dsat")}
        if not isinstance(data["controller_hash"], str):
            raise TypeError("controller_hash is not a string")
        return Certificate(cand, level, gamma, delta, {}, spec,
                           data["controller_hash"],
                           _count(data["iterations"]), refuted,
                           str(data.get("version", "?")))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError("malformed certificate %s: %s %s"
                         % (path, type(exc).__name__, exc)) from None


@dataclass
class Inconclusive:
    """A verify call's record, returned when it fails: the stage (a value
    of _STAGES) where it stopped, the detail of why, the CEGIS rounds it
    reached (iterations) and those sampling and dsat refuted (refuted).
    Its transcripts are decrease_<k> for each round k that dsat refuted,
    then decrease once a candidate passed."""
    stage: str
    detail: str
    transcripts: dict = field(default_factory=dict)
    iterations: int = 0
    refuted: dict = field(default_factory=lambda: {"sampling": 0, "dsat": 0})


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
    return QueryTranscript(**vars(dsat.check(phi, boxes, delta)), name=name,
                           phi=phi, domains=list(boxes), delta=delta)


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
    """Exact minimum of v over the halfspace a.x >= b or, for a (k, n)
    matrix a and k bounds b, over the union of the halfspaces a[j].x >=
    b[j].  Raises NotEllipsoidError as cand.center does."""
    p, x_star = cand.p_matrix, cand.center
    mins = []
    for a, b in zip(np.array(a, dtype=float, ndmin=2), np.ravel(b)):
        x = x_star
        if not a @ x_star >= b:     # KKT minimum on the hyperplane a.x = b
            lam = ((2.0 * b + a @ np.linalg.solve(p, cand.q_vector))
                   / (a @ np.linalg.solve(p, a)))
            x = np.linalg.solve(p, lam * a - cand.q_vector) / 2.0
        mins.append(cand.value(x))
    return min(mins)


def vertex_max(cand, x0):
    """Max of v over the 2^n vertices of the box."""
    return max(cand.value(corner) for corner in itertools.product(*x0.bounds))


class NoLevelError(RuntimeError):
    """select_level found no level with X0 inside L and L disjoint from U."""


def select_level(cand, spec, delta=DELTA_DEFAULT):
    """Binary search for a level with X0 inside L and L disjoint from U.

    Returns (level, transcripts).  The feasible range is (vertex_max,
    min halfspace minimum); the vertex condition is necessary but not
    sufficient, so each probe is confirmed by both set queries.  Raises
    NoLevelError when the range is empty or after BISECTION_STEPS
    rejected probes.
    """
    vmax = vertex_max(cand, spec.x0)
    # U, outside the safe rectangle, is the union of the 2n halfspaces
    # beyond its faces: x_i >= hi_i and -x_i >= -lo_i.
    n = spec.arity
    faces = np.zeros((n, 2, n))
    faces[range(n), :, range(n)] = 1.0, -1.0
    ends = spec.safe_rect.bounds[:, ::-1] * (1.0, -1.0)    # rows (hi, -lo)
    hmin = halfspace_min(cand, faces.reshape(2 * n, n), ends.ravel())
    if not hmin > vmax:
        raise NoLevelError("empty level range: v's vertex maximum on X0 "
                           "is %r, its minimum on U %r" % (vmax, hmin))
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
        return level, {"init_containment": t2, "unsafe_disjoint": t3}
    raise NoLevelError("all %d level probes between %r and %r failed"
                       % (BISECTION_STEPS, vmax, hmin))


# ---------------------------------------------------------------------------
# CEGIS loop and the full pipeline
# ---------------------------------------------------------------------------

def find_generator(spec, f, config, run):
    """The CEGIS loop of the module docstring; returns the candidate or
    raises a failure of _STAGES.  Each round goes into `run`, the verify
    call's Inconclusive: its number as iterations, its refuted count, and
    its decrease transcript as decrease_<round> when dsat refuted it and
    as decrease when the candidate passed."""
    tmpl = lpgen.QuadraticTemplate(spec.arity)
    lp_region = (spec.safe_rect, spec.x0)
    # What the rounds read of each batch, derived once: the LP's points,
    # and the states midway between them in the LP's region with their
    # derivatives, a (2, m, n) array.
    points, mids = [], []

    def accept(batch):
        points.append(lpgen.lp_points(batch, SUBSAMPLE, lp_region))
        mid = lpgen.trace_grid(batch, slice(SUBSAMPLE // 2, None, SUBSAMPLE))
        mids.append(mid[:, lpgen.in_region(mid[0], lp_region)])
    accept(_on_read_grid(lambda step: sim.seed_traces(
        f, spec.safe_rect, config.n_seed_traces, SIM_DURATION, step,
        config.seed, exclude=spec.x0)))
    # Its own stream of config.seed, so the seed traces do not move.
    sample = sim.sample_box(
        np.random.default_rng(np.random.SeedSequence(config.seed,
                                                     spawn_key=(1,))),
        spec.safe_rect, FALSIFY_POINTS, exclude=spec.x0)
    sample = np.stack([sample, f.batched(sample.T).T])  # f once per call
    for run.iterations in range(1, config.max_iterations + 1):
        lp = lpgen.build_constraints(points, tmpl, EPS_POS, EPS_DEC)
        sol = lpgen.solve_lp(lp)
        if sol is lpgen.INFEASIBLE or sol[-1] <= 0:
            raise NoCandidateError("LP %s at iteration %d" % (
                "infeasible" if sol is lpgen.INFEASIBLE else
                "margin nonpositive", run.iterations))
        cand = lpgen.candidate_from(sol[:-1], tmpl)
        # grad v . f at the traces' midpoints, from their stored
        # derivatives, and at the sample, in lie_derivative's order.
        xs, fx = np.concatenate([*mids, sample], axis=1)
        values = 0.0
        for g, f_i in zip(cand.grad, fx.T):
            values = values + sx.compile_expr(g)(xs.T) * f_i
        cex = falsify(values, xs, spec, config.gamma)
        del xs, fx, values  # not held through the query and new traces
        if cex:
            run.refuted["sampling"] += 1
        else:
            transcript = query_decrease(cand, f, spec, config.gamma,
                                        config.delta)
            if transcript.verdict == "UNSAT":
                run.transcripts["decrease"] = transcript
                return cand
            run.refuted["dsat"] += 1
            run.transcripts["decrease_%d" % run.iterations] = transcript
            cex = [transcript.witness.midpoint()]
        starts = [p for x in cex for p in _cex_cluster(x, spec)]
        accept(_on_read_grid(lambda step: sim.simulate(
            f, starts, SIM_DURATION, step)))
    raise NoCandidateError("no candidate within %d iterations"
                           % config.max_iterations)


def _on_read_grid(integrate):
    """integrate(step), a simulate.Batch, on the SIM_STEP grid.

    When the batch diverges at SIM_STEP, or SIM_STEP times its stiffness
    exceeds STIFF_LIMIT, it is integrated again at SIM_STEP / REFINE and
    every REFINE-th state kept.  Raises SimulationDivergence when that
    diverges too.
    """
    try:
        batch = integrate(SIM_STEP)
        if SIM_STEP * sim.stiffness(batch) <= STIFF_LIMIT:
            return batch
    except sim.SimulationDivergence:
        pass
    fine = integrate(SIM_STEP / REFINE)
    return sim.Batch(fine.times[::REFINE], fine.states[::REFINE],
                     fine.derivs[::REFINE])


def falsify(values, points, spec, gamma):
    """Counterexamples to the decrease condition among `points`, an (m, n)
    array, whose Lie derivative `values` are >= -gamma: worst first, at
    most MAX_CEX of them.  A point within CEX_SPREAD of one already taken,
    in every dimension as a fraction of the safe rectangle's width, is
    skipped: that one's cluster covers it."""
    bad = np.flatnonzero(values >= -gamma)
    left = points[bad[np.argsort(-values[bad], kind="stable")]]
    reach = CEX_SPREAD * np.diff(spec.safe_rect.bounds).ravel()
    taken = []
    while len(left) and len(taken) < MAX_CEX:
        taken.append(left[0])
        left = left[(np.abs(left - left[0]) >= reach).any(axis=1)]
    return taken


def _cex_cluster(cex, spec):
    """The counterexample, then its axis-aligned neighbors outside X0:
    along dimension 0 down and up, then dimension 1, and so on.

    A lone trace head only refutes a tiny neighborhood, which lets the
    next witness crawl along a constraint boundary one delta-box at a
    time; jittered restarts knock out the whole stretch at once.
    """
    cex = np.asarray(cex, dtype=float)
    near = np.repeat(cex[None], 2 * len(cex), axis=0)   # (2n, n)
    for dim, (lo, hi) in enumerate(spec.safe_rect.bounds):
        for up, sign in enumerate((-1.0, 1.0)):
            # cex lies in the safe rectangle, so only dim can leave it.
            near[2 * dim + up, dim] = min(max(
                cex[dim] + sign * CEX_SPREAD * (hi - lo), lo), hi)
    return [cex, *near[~spec.x0.contains(near)]]


class NoCandidateError(RuntimeError):
    """CEGIS loop exhausted without a checked generator function."""


# The failures that verify reports as Inconclusive, by stage.
_STAGES = {plant.ArityError: "arity",
           NoCandidateError: "no_candidate",
           dsat.BudgetExhausted: "budget",
           sim.SimulationDivergence: "simulation",
           lpgen.LPUnboundedError: "lp_unbounded",
           lpgen.PivotLimitError: "lp",
           NoLevelError: "no_level",
           NotEllipsoidError: "no_level"}


def verify(spec, f, config=None, controller_hash=""):
    """Full procedure; returns a Certificate or the run's Inconclusive."""
    config = config or CertifyConfig()
    run = Inconclusive("", "")
    try:
        if spec.arity != f.arity:
            raise plant.ArityError("spec has arity %d, the field %d"
                                   % (spec.arity, f.arity))
        cand = find_generator(spec, f, config, run)
        level, level_transcripts = select_level(cand, spec, config.delta)
    except tuple(_STAGES) as exc:
        run.stage = next(s for t, s in _STAGES.items() if isinstance(exc, t))
        run.detail = str(exc)
        return run
    return Certificate(cand, level, config.gamma, config.delta,
                       {"decrease": run.transcripts["decrease"],
                        **level_transcripts},
                       spec, controller_hash, run.iterations, run.refuted)


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
    1959, mapped by the candidate's level_points) with grad v . f >= 0, of
    "x0" points with v > level, and of "unsafe" points with v <= level: an
    equal share in each slab of spec.unsafe_slabs(), one slab at a time,
    half of it on the slab's inner face, where a convex v is least.
    Raises ValueError when spec and field differ in arity, and as
    level_points does when P is not positive definite or L is empty."""
    spec, cand, level = cert.spec, cert.candidate, cert.level
    if spec.arity != f.arity:
        raise ValueError("spec arity %d, field arity %d"
                         % (spec.arity, f.arity))
    rng = np.random.default_rng(0)
    vfun = sx.compile_expr(cand.expr)
    lie = sx.compile_expr(lie_derivative(cand, f))
    dirs = rng.standard_normal((f.arity, ORACLE_BOUNDARY))
    dirs /= np.linalg.norm(dirs, axis=0)
    boundary = cand.level_points(level, dirs)
    # In chunks, so a wide controller's hidden layers stay small.
    boundary_bad = sum(int(np.sum(lie(boundary[:, i:i + ORACLE_CHUNK]) >= 0.0))
                       for i in range(0, ORACLE_BOUNDARY, ORACLE_CHUNK))
    x0 = np.concatenate([
        list(itertools.product(*spec.x0.bounds)),
        sim.sample_box(rng, spec.x0, ORACLE_X0)])
    x0_bad = int(np.sum(vfun(x0.T) > level))
    slabs = spec.unsafe_slabs()
    u_bad = 0
    for k, slab in enumerate(slabs):
        dim, below = divmod(k, 2)
        pts = sim.sample_box(rng, slab, ORACLE_UNSAFE // len(slabs))
        pts[::2, dim] = slab.bounds[dim, below]
        u_bad += int(np.sum(vfun(pts.T) <= level))
    return {"boundary": boundary_bad, "x0": x0_bad, "unsafe": u_bad}
