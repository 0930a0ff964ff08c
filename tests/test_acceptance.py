"""Acceptance suite: one test per release criterion.

Each test is a single pass/fail line under pytest -v.  Tolerances are
pinned here and intentionally not imported from the library.
"""

import csv
import math
import time

import numpy as np
import pytest

from barricade import certify
from barricade import cli
from barricade import dsat
from barricade import lpgen
from barricade import network as nn
from barricade import plant
from barricade import simulate as sim
from barricade import symexpr as sx
from barricade import train

GAMMA = 1e-6
DELTA = 1e-3


@pytest.fixture(scope="module")
def bundled_10():
    net = nn.load(cli.bundled_controller_path(10))
    field = plant.dubins_closed_loop(plant.DubinsParams(), net)
    return net, field


@pytest.fixture(scope="module")
def certificate_10(bundled_10):
    net, field = bundled_10
    t0 = time.perf_counter()
    result = certify.verify(certify.default_spec(), field,
                            certify.CertifyConfig(gamma=GAMMA, delta=DELTA),
                            controller_hash=nn.controller_hash(net))
    return result, time.perf_counter() - t0


def test_criterion_01_end_to_end_certification(tmp_path, certificate_10,
                                               bundled_10):
    """Bundled 10-neuron controller certifies: exit 0, 3 UNSAT transcripts,
    <= 5 CEGIS iterations, <= 10 minutes wall time."""
    result, wall = certificate_10
    assert isinstance(result, certify.Certificate), getattr(
        result, "detail", result)
    assert set(result.transcripts) == {"decrease", "init_containment",
                                       "unsafe_disjoint"}
    for t in result.transcripts.values():
        assert t.verdict == "UNSAT"
    assert result.iterations <= 5
    assert wall <= 600.0
    assert result.gamma == GAMMA and result.delta == DELTA
    # the CLI path reports the same outcome through its exit code
    out = tmp_path / "certificate.json"
    rc = cli.main(["verify", "--nn", cli.bundled_controller_path(10),
                   "--out", str(out)])
    assert rc == 0


def test_criterion_02_certificate_soundness_oracle(certificate_10,
                                                   bundled_10):
    """Every emitted certificate passes the boundary/X0/U sampling oracle
    with zero violations."""
    _, field10 = bundled_10
    cert, _ = certificate_10
    assert isinstance(cert, certify.Certificate)
    checked = [(cert, field10)]
    for size in (50, 100):
        net = nn.load(cli.bundled_controller_path(size))
        field = plant.dubins_closed_loop(plant.DubinsParams(), net)
        result = certify.verify(certify.default_spec(), field)
        assert isinstance(result, certify.Certificate), size
        checked.append((result, field))
    for c, f in checked:
        violations = certify.certificate_grid_oracle(c, f)
        assert violations == {"boundary": 0, "x0": 0, "unsafe": 0}


def test_criterion_03_scaling_sweep(tmp_path, capsys):
    """bench over 10,50,100 neurons x 3 trials: no failed trials and the
    iterations column stays <= 5."""
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--neurons", "10,50,100", "--trials", "3",
                   "--out", str(out)])
    assert rc == 0
    assert "0 failed trials" in capsys.readouterr().out
    rows = list(csv.reader(open(out)))
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["10", "50", "100"]
    for row in rows[1:]:
        assert float(row[1]) <= 5.0


def test_criterion_04_dynamics_identity():
    """Verbatim Dubins d_err dynamics equal V sin(theta_e) within 1e-12
    over 10^4 random parameter draws."""
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        v = float(rng.uniform(1e-12, 2.0))
        p_ang = float(rng.uniform(-math.pi, math.pi))
        th_e = float(rng.uniform(-math.pi, math.pi))
        field = plant.dubins_error_field(plant.DubinsParams(v, p_ang))
        d_dot = sx.eval_expr(field[0], [0.0, th_e, 0.0])
        assert abs(d_dot - v * math.sin(th_e)) < 1e-12


def test_criterion_05_parameter_law():
    """Case-study networks of 10, 100 and 1000 hidden neurons have exactly
    4*N_h + 1 parameters."""
    for n_hidden in (10, 100, 1000):
        net = train.params_to_network(np.zeros(4 * n_hidden + 1), n_hidden)
        assert nn.parameter_count(net) == 4 * n_hidden + 1


_OPS = ("add", "sub", "mul", "neg", "sin", "cos", "tanh", "pow", "exp")


def _random_expr(rng, depth, arity):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return sx.var(int(rng.integers(arity)))
        return sx.const(float(rng.uniform(-3.0, 3.0)))
    # the draw rng.choice(_OPS) makes, without its list conversion
    op = _OPS[rng.integers(len(_OPS))]
    a = _random_expr(rng, depth - 1, arity)
    if op == "pow":
        return sx.pow_(a, int(rng.integers(0, 4)))
    if op == "exp":
        return sx.exp(sx.mul(sx.const(0.05), a))
    if op in ("neg", "sin", "cos", "tanh"):
        return getattr(sx, op)(a)
    return getattr(sx, op)(a, _random_expr(rng, depth - 1, arity))


def test_criterion_06_interval_soundness_fuzz():
    """10^5 random (expression, box, interior point) trials with zero
    containment violations, plus inclusion-isotonicity fuzzing."""
    rng = np.random.default_rng(99)
    containment = 0
    isotonic = 0
    for trial in range(100_000):
        e = _random_expr(rng, 3, 2)
        lo = rng.uniform(-2.0, 2.0, size=2)
        hi = lo + rng.uniform(0.0, 2.0, size=2)
        bx = sx.box(*zip(lo, hi))
        p = rng.uniform(lo, hi)
        try:
            iv = sx.interval_eval(e, bx)
            val = sx.eval_expr(e, p)
        except sx.EvalError:
            continue
        if not (iv.lo <= val <= iv.hi):
            containment += 1
        if trial % 10 == 0:
            # random sub-box: result must be contained in the parent's
            frac = rng.uniform(0.0, 1.0, size=(2, 2))
            s_lo = lo + frac.min(axis=0) * (hi - lo)
            s_hi = lo + frac.max(axis=0) * (hi - lo)
            sub = sx.box(*zip(s_lo, s_hi))
            try:
                sub_iv = sx.interval_eval(e, sub)
            except sx.EvalError:
                continue
            if not (iv.lo <= sub_iv.lo and sub_iv.hi <= iv.hi):
                isotonic += 1
    assert containment == 0
    assert isotonic == 0


def test_criterion_07_dsat_battery():
    """Analytic UNSAT/DELTA_SAT instances return the stated verdicts and
    every UNSAT verdict survives a 10^6-point grid refutation."""
    dom1 = sx.box((-10.0, 10.0))
    dom2 = sx.box((-2.0, 2.0), (-2.0, 2.0))
    x, y = sx.var(0), sx.var(1)
    battery = [
        # (formula, domain, expected verdict)
        (dsat.Formula(1, dsat.Constraint(
            sx.add(sx.pow_(x, 2), sx.const(1.0)), "<=", 0.0)), dom1, "UNSAT"),
        (dsat.Formula(1, dsat.And((dsat.Constraint(x, ">=", 1.0),
                                   dsat.Constraint(x, "<=", 0.0)))),
         sx.box((-5.0, 5.0)), "UNSAT"),
        (dsat.Formula(1, dsat.Constraint(sx.sin(x), ">=", 0.999999)),
         sx.box((0.0, math.pi)), "DELTA_SAT"),
        (dsat.Formula(2, dsat.Constraint(
            sx.add(sx.pow_(x, 2), sx.pow_(y, 2)), "<=", -0.01)),
         dom2, "UNSAT"),
        (dsat.Formula(2, dsat.Constraint(
            sx.add(sx.mul(sx.const(2.0), x), sx.cos(y)), ">=", 5.5)),
         dom2, "UNSAT"),
        (dsat.Formula(2, dsat.Constraint(sx.add(x, y), ">=", 0.5)),
         dom2, "DELTA_SAT"),
    ]

    def satisfied(node, p):
        if isinstance(node, dsat.Constraint):
            v = sx.eval_expr(node.lhs, p)
            return {"<=": v <= node.rhs, "<": v < node.rhs,
                    ">=": v >= node.rhs, ">": v > node.rhs,
                    "=": v == node.rhs}[node.rel]
        if isinstance(node, dsat.And):
            return all(satisfied(q, p) for q in node.parts)
        return any(satisfied(q, p) for q in node.parts)

    for phi, dom, expected in battery:
        out = dsat.check(phi, dom, DELTA)
        assert out.verdict == expected, phi.to_text()
        if expected != "UNSAT":
            continue
        # 10^6-point grid refutation
        if dom.arity == 1:
            pts = np.linspace(dom[0].lo, dom[0].hi, 1_000_000)[:, None]
        else:
            side = np.linspace(dom[0].lo, dom[0].hi, 1000)
            side2 = np.linspace(dom[1].lo, dom[1].hi, 1000)
            xx, yy = np.meshgrid(side, side2)
            pts = np.column_stack([xx.ravel(), yy.ravel()])
        fn = sx.compile_expr(phi.root.lhs) if isinstance(
            phi.root, dsat.Constraint) else None
        if fn is not None:
            vals = fn(pts.T)
            rel, rhs = phi.root.rel, phi.root.rhs
            hits = {"<=": vals <= rhs, "<": vals < rhs,
                    ">=": vals >= rhs, ">": vals > rhs,
                    "=": vals == rhs}[rel]
            assert int(np.count_nonzero(hits)) == 0
        else:
            assert not any(satisfied(phi.root, p) for p in pts)


def test_criterion_08_cmaes_benchmark():
    """Sphere(10) reaches < 1e-6 within 2000 evaluations; best-so-far is
    monotone; fixed-seed training is bit-reproducible."""
    cfg = train.CmaesConfig(population=20, iterations=100, sigma0=1.0, seed=0)
    best, hist = train.cmaes_minimize(lambda z: float(np.sum(z ** 2)),
                                      10, cfg)
    assert hist[-1] < 1e-6          # 20 x 100 = 2000 evaluations
    assert all(a >= b for a, b in zip(hist, hist[1:]))
    small = train.CmaesConfig(population=8, iterations=3, seed=5)
    roll = train.RolloutConfig(n_steps=60)
    net_a, hist_a = train.train_controller(3, rollout_cfg=roll,
                                           cmaes_cfg=small)
    net_b, hist_b = train.train_controller(3, rollout_cfg=roll,
                                           cmaes_cfg=small)
    assert net_a == net_b
    assert hist_a == hist_b


def test_criterion_09_lp_correctness():
    """Non-INFEASIBLE solutions re-satisfy every row with slack >= -1e-9;
    a contradictory instance returns INFEASIBLE."""
    contradictory = lpgen.LPProblem(                # x >= 1 and x <= 0
        np.array([[-1.0], [1.0]]), np.array([-1.0, 0.0]), np.array([1.0]))
    assert lpgen.solve_lp(contradictory) is lpgen.INFEASIBLE
    rng = np.random.default_rng(77)
    solved = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        rows, rhs = [], []
        for _ in range(int(rng.integers(3, 40))):
            rows.append(rng.uniform(-1, 1, size=n))
            rhs.append(float(rng.uniform(0.2, 2.0)))
        for e in np.eye(n):
            rows += [e, -e]
            rhs += [2.0, 2.0]
        lp = lpgen.LPProblem(np.array(rows), np.array(rhs),
                             rng.uniform(-1, 1, size=n))
        sol = lpgen.solve_lp(lp)
        if sol is lpgen.INFEASIBLE:
            continue
        solved += 1
        assert lp.check_solution(sol) >= -1e-9
    assert solved >= 20


def test_criterion_10_level_set_analytics():
    """Symmetric example: vertex_max = 0.02 and halfspace minima = 1
    exactly; select_level lands strictly inside (0.02, 1) with both final
    queries UNSAT."""
    tmpl = lpgen.QuadraticTemplate(2)
    cand = lpgen.candidate_from([1.0, 0.0, 1.0, 0.0, 0.0, 0.0], tmpl)
    spec = certify.SafetySpec(sx.box((-0.1, 0.1), (-0.1, 0.1)),
                              sx.box((-1.0, 1.0), (-1.0, 1.0)))
    assert certify.vertex_max(cand, spec.x0) == 0.1 ** 2 + 0.1 ** 2
    for a, b in spec.unsafe_halfspaces():
        assert certify.halfspace_min(cand, a, b) == 1.0
    level, transcripts = certify.select_level(cand, spec)
    assert level is not certify.NO_LEVEL
    assert 0.02 < level < 1.0
    assert transcripts["init_containment"].verdict == "UNSAT"
    assert transcripts["unsafe_disjoint"].verdict == "UNSAT"
