"""Certification pipeline: queries, level selection, CEGIS, certificates."""

import dataclasses
import functools
import json
import math
from pathlib import Path

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


def _identity_candidate():
    tmpl = lpgen.QuadraticTemplate(2)
    return lpgen.candidate_from([1.0, 0.0, 1.0, 0.0, 0.0, 0.0], tmpl)


def _neg_candidate():
    tmpl = lpgen.QuadraticTemplate(2)
    return lpgen.candidate_from([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0], tmpl)


def _contraction_field():
    return plant.VectorField(2, (sx.neg(sx.var(0)), sx.neg(sx.var(1))))


def _square_spec():
    return certify.SafetySpec(sx.box((-0.1, 0.1), (-0.1, 0.1)),
                              sx.box((-1.0, 1.0), (-1.0, 1.0)))


def _unsafe_faces(spec):
    """The 2n halfspaces a.x >= b beyond the safe rectangle's faces, as
    (a, b) pairs: x_i >= hi_i and -x_i >= -lo_i."""
    faces = []
    for i, (lo, hi) in enumerate(spec.safe_rect.bounds):
        for sign, b in ((1.0, hi), (-1.0, -lo)):
            a = np.zeros(spec.arity)
            a[i] = sign
            faces.append((a, b))
    return faces


def _unsafe_min(cand, spec):
    """The least minimum of v over U's faces, one face per call."""
    return min(certify.halfspace_min(cand, a, b)
               for a, b in _unsafe_faces(spec))


def _hand_controller_field():
    net = nn.Network((nn.make_layer([[0.9, 1.6]], [0.0], "tanh"),
                      nn.make_layer([[1.5]], [0.0], "tanh")))
    return plant.dubins_closed_loop(plant.DubinsParams(), net)


class TestSpec:
    def test_default_geometry(self):
        spec = certify.default_spec()
        assert spec.x0.bounds.tolist() == [[-0.1, 0.1]] * 2
        assert spec.safe_rect.bounds[0].tolist() == [-1.0, 1.0]
        assert spec.safe_rect.bounds[1, 1] == pytest.approx(math.pi / 2)

    def test_unbounded_safe_rect_rejected(self):
        with pytest.raises(ValueError):
            certify.SafetySpec(sx.box((-0.1, 0.1), (-0.1, 0.1)),
                               sx.box((-math.inf, 1.0), (-1.5, 1.5)))

    def test_arity_mismatch_rejected(self):
        for x0, safe in (((( -0.1, 0.1),), ((-1.0, 1.0), (-1.0, 1.0))),
                         (((-0.1, 0.1), (-0.1, 0.1)), ((-1.0, 1.0),))):
            with pytest.raises(ValueError):
                certify.SafetySpec(sx.box(*x0), sx.box(*safe))

    def test_x0_must_be_strictly_inside(self):
        with pytest.raises(ValueError):
            certify.SafetySpec(sx.box((-1.0, 1.0), (0.0, 0.1)),
                               sx.box((-1.0, 1.0), (-1.0, 1.0)))

    def test_slab_decomposition_covers_ring(self):
        spec = _square_spec()
        slabs = spec.domain_minus_x0()
        assert len(slabs) == 4
        rng = np.random.default_rng(2)
        for _ in range(2000):
            p = rng.uniform(-1, 1, size=2)
            in_ring = not spec.x0.contains(p)
            assert any(s.contains(p) for s in slabs) == in_ring or (
                # boundary points may fall either way
                any(abs(abs(v) - 0.1) < 1e-12 for v in p))

    def test_unsafe_slabs_cover_u(self):
        spec = _square_spec()
        slabs = spec.unsafe_slabs()
        assert len(slabs) == 4
        # slabs 2i and 2i+1 lie beyond the upper and lower face of dim i
        for k, slab in enumerate(slabs):
            dim, below = divmod(k, 2)
            (lo, hi), (face_lo, face_hi) = (slab.bounds[dim],
                                            spec.safe_rect.bounds[dim])
            assert hi == face_lo if below else lo == face_hi
        # the enclosing box is three times the safe rectangle
        env = sx.box((-3.0, 3.0), (-3.0, 3.0))
        assert all((s.bounds[dim] == env.bounds[dim]).all()
                   for k, s in enumerate(slabs)
                   for dim in range(2) if dim != k // 2)
        rng = np.random.default_rng(3)
        for p in sim.sample_box(rng, env, 2000):
            assert (any(s.contains(p) for s in slabs)
                    == (not spec.safe_rect.contains(p)))
        t = certify.query_unsafe_disjoint(_identity_candidate(), 0.51, spec)
        assert t.domains == slabs


class TestQueries:
    def test_decrease_unsat_for_contraction(self):
        t = certify.query_decrease(_identity_candidate(),
                                   _contraction_field(), _square_spec())
        assert t.verdict == "UNSAT"

    def test_decrease_sat_for_growth(self):
        t = certify.query_decrease(_neg_candidate(), _contraction_field(),
                                   _square_spec())
        assert t.verdict == "DELTA_SAT"
        assert t.witness is not None

    def test_gamma_recorded(self):
        t = certify.query_decrease(_identity_candidate(),
                                   _contraction_field(), _square_spec())
        assert "1e-06" in t.formula or "-1e-06" in t.formula

    def test_init_containment(self):
        cand = _identity_candidate()
        spec = _square_spec()
        assert certify.query_init_containment(
            cand, 1e6, spec.x0).verdict == "UNSAT"
        assert certify.query_init_containment(
            cand, 0.01, spec.x0).verdict == "DELTA_SAT"

    def test_unsafe_disjoint(self):
        cand = _identity_candidate()
        spec = _square_spec()
        assert certify.query_unsafe_disjoint(cand, 0.51, spec
                                             ).verdict == "UNSAT"
        assert certify.query_unsafe_disjoint(cand, 1.5, spec
                                             ).verdict == "DELTA_SAT"
        # level below the minimum of v: L is empty
        assert certify.query_unsafe_disjoint(cand, -1.0, spec
                                             ).verdict == "UNSAT"


class TestLevelAnalytics:
    def test_halfspace_min_active(self):
        cand = _identity_candidate()
        assert certify.halfspace_min(cand, [1.0, 0.0], 1.0) == pytest.approx(1.0)

    def test_halfspace_min_unconstrained(self):
        cand = _identity_candidate()
        assert certify.halfspace_min(cand, [1.0, 0.0], -5.0) == pytest.approx(0.0)

    def test_halfspace_min_grid_oracle(self):
        rng = np.random.default_rng(13)
        tmpl = lpgen.QuadraticTemplate(2)
        for _ in range(20):
            m = rng.uniform(-1, 1, size=(2, 2))
            p = m @ m.T + 0.2 * np.eye(2)
            q = rng.uniform(-0.5, 0.5, size=2)
            cand = lpgen.candidate_from(
                [p[0, 0], p[0, 1], p[1, 1], q[0], q[1], 0.0], tmpl)
            a = rng.uniform(-1, 1, size=2)
            a /= np.linalg.norm(a)
            b = float(rng.uniform(-0.5, 1.5))
            got = certify.halfspace_min(cand, a, b)
            # exact unconstrained minimizer, plus a fine sweep of the
            # boundary hyperplane when the minimizer is outside
            x_star = np.linalg.solve(p, -0.5 * q)
            if a @ x_star >= b:
                ref = cand.value(x_star)
            else:
                n_perp = np.array([-a[1], a[0]])
                ts = np.linspace(-20, 20, 200_001)
                pts = b * a[None, :] + ts[:, None] * n_perp[None, :]
                vals = (p[0, 0] * pts[:, 0] ** 2
                        + 2 * p[0, 1] * pts[:, 0] * pts[:, 1]
                        + p[1, 1] * pts[:, 1] ** 2
                        + q[0] * pts[:, 0] + q[1] * pts[:, 1])
                ref = vals.min()
            assert got == pytest.approx(ref, abs=1e-6)

    def test_not_ellipsoid(self):
        with pytest.raises(certify.NotEllipsoidError):
            certify.halfspace_min(_neg_candidate(), [1.0, 0.0], 1.0)

    def test_not_ellipsoid_by_rounding(self):
        # float Cholesky accepts this P, but its exact determinant is -1.4e-16
        cand = lpgen.candidate_from(
            [0.18212704632184262, -2.254300341002616, 27.9028849919642,
             0.0, 0.0, 0.0], lpgen.QuadraticTemplate(2))
        np.linalg.cholesky(cand.p_matrix)
        with pytest.raises(certify.NotEllipsoidError):
            certify.halfspace_min(cand, [1.0, 0.0], 1.0)

    def test_vertex_max_symmetric(self):
        cand = _identity_candidate()
        assert certify.vertex_max(cand, _square_spec().x0) == pytest.approx(0.02)

    def test_vertex_max_asymmetric(self):
        tmpl = lpgen.QuadraticTemplate(2)
        cand = lpgen.candidate_from([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], tmpl)
        # v = d^2 + d, max at d = +0.1 -> 0.11
        assert certify.vertex_max(cand, _square_spec().x0) == pytest.approx(0.11)

    def test_select_level_symmetric(self):
        cand = _identity_candidate()
        spec = _square_spec()
        level, transcripts = certify.select_level(cand, spec)
        assert isinstance(level, float)
        assert 0.02 < level < 1.0
        assert transcripts["init_containment"].verdict == "UNSAT"
        assert transcripts["unsafe_disjoint"].verdict == "UNSAT"

    def test_select_level_infeasible_range(self, monkeypatch):
        tmpl = lpgen.QuadraticTemplate(2)
        # v with a huge linear tilt: vertex max exceeds halfspace minimum
        cand = lpgen.candidate_from([1.0, 0.0, 1.0, 1.0, 0.0, 0.0], tmpl)
        spec = certify.SafetySpec(sx.box((-0.9, 0.9), (-0.9, 0.9)),
                                  sx.box((-1.0, 1.0), (-1.0, 1.0)))

        def no_probe(*args):
            raise AssertionError("an empty range needs no probe")
        monkeypatch.setattr(certify, "query_init_containment", no_probe)
        with pytest.raises(certify.NoLevelError) as info:
            certify.select_level(cand, spec)
        vmax, umin = certify.vertex_max(cand, spec.x0), _unsafe_min(cand, spec)
        assert not umin > vmax
        assert str(info.value) == (
            "empty level range: v's vertex maximum on X0 is %r, its minimum "
            "on U %r" % (vmax, umin))

    def test_faces_in_one_call(self, monkeypatch):
        # the union of U's faces in one call gives the least of the
        # per-face minima, bit for bit, and select_level makes that one
        # call, so P is checked once
        rng = np.random.default_rng(5)
        for n in (2, 3):
            tmpl = lpgen.QuadraticTemplate(n)
            for _ in range(20):
                m = rng.uniform(-1, 1, size=(n, n))
                p = m @ m.T + 0.2 * np.eye(n)
                cand = lpgen.candidate_from(
                    [p[i, j] for i, j in tmpl.pairs]
                    + rng.uniform(-0.5, 0.5, size=n).tolist() + [0.0], tmpl)
                spec = certify.SafetySpec(
                    sx.box(*[(-0.1, 0.1)] * n),
                    sx.box(*[tuple(sorted(rng.uniform(0.2, 2.0, 2)
                                          * (-1.0, 1.0)))] * n))
                a, b = zip(*_unsafe_faces(spec))
                assert (certify.halfspace_min(cand, np.array(a), b)
                        == _unsafe_min(cand, spec))
        calls = []
        halfspace_min = certify.halfspace_min

        def counted(*args):
            calls.append(args)
            return halfspace_min(*args)
        monkeypatch.setattr(certify, "halfspace_min", counted)
        level, _ = certify.select_level(_identity_candidate(), _square_spec())
        assert 0.02 < level < 1.0 and len(calls) == 1
        assert calls[0][1].shape == (4, 2) and list(calls[0][2]) == [
            1.0, 1.0, 1.0, 1.0]


class TestBisection:
    """select_level's branches, counted through the level probes."""

    @pytest.fixture()
    def probes(self, monkeypatch):
        log = []
        for name in ("query_init_containment", "query_unsafe_disjoint"):
            def probe(*args, _query=getattr(certify, name)):
                t = _query(*args)
                log.append((t.name, t.verdict))
                return t
            monkeypatch.setattr(certify, name, probe)
        return log

    # v = x^2 + 1.8xy + y^2, whose minimum on a face of the safe rectangle
    # barely clears its maximum over X0 at r = 0.2295.
    @pytest.mark.parametrize("r, delta, found, n_init, n_unsafe", [
        (0.2295, 1e-3, False, 30, 30),   # every unsafe probe fails: hi moves
        (0.24, 1e-3, True, 1, 1),        # the first probe holds
        (0.3, 1e-2, True, 6, 6),         # hi moves, then a probe holds
        (0.25, 5e-2, False, 30, 15),     # coarse delta: lo moves 15 times
    ])
    def test_probes(self, probes, r, delta, found, n_init, n_unsafe):
        cand = lpgen.candidate_from([1.0, 0.9, 1.0, 0.0, 0.0, 0.0],
                                    lpgen.QuadraticTemplate(2))
        spec = certify.SafetySpec(sx.box((0.0, 0.1), (-0.1, 0.0)),
                                  sx.box((-r, r), (-r, r)))
        if found:
            level, transcripts = certify.select_level(cand, spec, delta)
        else:
            with pytest.raises(certify.NoLevelError,
                               match="^all %d level probes between "
                               % certify.BISECTION_STEPS):
                certify.select_level(cand, spec, delta)
        inits = [v for name, v in probes if name == "init_containment"]
        unsafes = [v for name, v in probes if name == "unsafe_disjoint"]
        assert (len(inits), len(unsafes)) == (n_init, n_unsafe)
        if not found:
            assert len(inits) == certify.BISECTION_STEPS
            assert "UNSAT" not in unsafes
            return
        assert probes[-2:] == [("init_containment", "UNSAT"),
                               ("unsafe_disjoint", "UNSAT")]
        assert certify.vertex_max(cand, spec.x0) < level < _unsafe_min(
            cand, spec)
        assert {n: t.verdict for n, t in transcripts.items()} == {
            "init_containment": "UNSAT", "unsafe_disjoint": "UNSAT"}


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0}, {"gamma": -1e-6}, {"gamma": math.inf},
        {"delta": 0.0}, {"delta": math.nan}, {"max_iterations": -1},
        {"n_seed_traces": 0}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError, match="^%s=" % next(iter(kwargs))):
            certify.CertifyConfig(**kwargs)

    def test_not_changed_after_the_check(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            certify.CertifyConfig().gamma = 0.0


class TestCegis:
    def test_zero_budget(self):
        cfg = certify.CertifyConfig(max_iterations=0)
        out = certify.verify(_square_spec(), _contraction_field(), cfg)
        assert isinstance(out, certify.Inconclusive)
        assert out.stage == "no_candidate"

    def test_pivot_limit_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(lpgen, "MAX_PIVOTS", 3)
        out = certify.verify(_square_spec(), _contraction_field())
        assert isinstance(out, certify.Inconclusive)
        assert out.stage == "lp"

    def test_toy_field_converges_quickly(self):
        cfg = certify.CertifyConfig()
        cand, transcript, iters, _ = certify.find_generator(
            _square_spec(), _contraction_field(), cfg)
        assert iters <= 3
        assert transcript.verdict == "UNSAT"

    def test_determinism(self):
        cfg = certify.CertifyConfig(seed=5)
        a, _, _, _ = certify.find_generator(_square_spec(),
                                            _contraction_field(), cfg)
        b, _, _, _ = certify.find_generator(_square_spec(),
                                            _contraction_field(), cfg)
        assert np.array_equal(a.p_matrix, b.p_matrix)
        assert np.array_equal(a.q_vector, b.q_vector)
        assert a.c_scalar == b.c_scalar


class TestFalsify:
    def test_worst_first_spread_and_cap(self):
        # L(x) = x0 on the default spec: every point with x0 >= -gamma is
        # a counterexample, the largest x0 first.
        spec = certify.default_spec()
        reach = certify.CEX_SPREAD * np.diff(spec.safe_rect.bounds[0])[0]
        pts = np.array([[0.5, 0.0], [0.9, 0.0], [0.9 - 0.5 * reach, 0.01],
                        [0.9 - 0.5 * reach, 1.0], [-0.5, 0.0]])
        cex = certify.falsify(pts[:, 0], pts, spec, 1e-6)
        assert [p.tolist() for p in cex] == [pts[1].tolist(),
                                             pts[3].tolist(),
                                             pts[0].tolist()]
        many = np.column_stack([np.linspace(0.0, 1.0, 200), np.zeros(200)])
        cex = certify.falsify(many[:, 0], many, spec, 1e-6)
        assert len(cex) == certify.MAX_CEX
        assert cex[0].tolist() == [1.0, 0.0]

    def test_nothing_below_minus_gamma(self):
        spec = certify.default_spec()
        pts = np.array([[-0.5, 0.0], [-1e-5, 0.3]])
        assert certify.falsify(pts[:, 0], pts, spec, 1e-6) == []


def _cluster_point_by_point(cex, spec):
    """The counterexample cluster with one X0 test per neighbor: the
    reference for certify._cex_cluster."""
    pts = [np.asarray(cex, dtype=float)]
    for dim, (lo, hi) in enumerate(spec.safe_rect.bounds):
        for sign in (-1.0, 1.0):
            p = np.array(cex, dtype=float)
            p[dim] = min(max(p[dim] + sign * certify.CEX_SPREAD * (hi - lo),
                             lo), hi)
            if not spec.x0.contains(p):
                pts.append(p)
    return pts


class TestCexCluster:
    @pytest.mark.parametrize("cex, size", [
        ([1.0, 0.3], 5),                # on a face: one neighbor is cex
        ([0.12, -0.05], 4),             # the one down dimension 0 is in X0
        ([0.05, 0.0], 4),               # so are cex and that neighbor
        ([-1.0, -math.pi / 2], 5),      # on a corner of the safe rectangle
    ])
    def test_equals_the_per_point_rule(self, cex, size):
        spec = certify.default_spec()
        got = certify._cex_cluster(np.array(cex), spec)
        want = _cluster_point_by_point(cex, spec)
        assert len(got) == len(want) == size
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@functools.lru_cache(maxsize=None)
def _nn10_field():
    net = nn.load(cli.bundled_controller_path(10))
    return plant.dubins_closed_loop(plant.DubinsParams(), net)


class TestFalsifyOnStoredDerivatives:
    @pytest.mark.parametrize("neurons, seed, n_seed_traces", [
        (10, 0, 2), (10, 2, 2), (10, 3, 2),
        (100, 0, 20), (100, 1, 20), (100, 2, 20), (100, 3, 20)])
    def test_same_counterexamples_as_the_lie_program(
            self, monkeypatch, neurons, seed, n_seed_traces):
        # the cegis-nn10 pool and nn100: in every round, the values from
        # the stored derivatives and the sample's f, once per call, pick
        # the counterexamples that the Lie derivative's program picks
        f = plant.dubins_closed_loop(plant.DubinsParams(), nn.load(
            cli.bundled_controller_path(neurons)))
        rounds, cands = [], []
        falsify, candidate_from = certify.falsify, lpgen.candidate_from

        def recorded_candidate(*args):
            cands.append(candidate_from(*args))
            return cands[-1]

        def recorded_falsify(*args):
            rounds.append((cands[-1], *args))
            return falsify(*args)
        monkeypatch.setattr(lpgen, "candidate_from", recorded_candidate)
        monkeypatch.setattr(certify, "falsify", recorded_falsify)
        out = certify.verify(certify.default_spec(), f, certify.CertifyConfig(
            seed=seed, n_seed_traces=n_seed_traces))
        assert isinstance(out, certify.Certificate)
        assert len(rounds) == out.iterations
        for cand, values, points, spec, gamma in rounds:
            lie = sx.compile_expr(certify.lie_derivative(cand, f))(points.T)
            assert values.shape == lie.shape == (len(points),)
            assert np.allclose(values, lie, rtol=1e-12, atol=1e-15)
            assert ([p.tolist() for p in falsify(values, points, spec, gamma)]
                    == [p.tolist() for p in falsify(lie, points, spec, gamma)])


@functools.lru_cache(maxsize=None)
def _cegis_nn10(seed):
    """nn10 from two seed traces, where CEGIS needs several rounds."""
    return certify.verify(certify.default_spec(), _nn10_field(),
                          certify.CertifyConfig(seed=seed, n_seed_traces=2))


def _without_wall_times(cert):
    d = cert.to_dict()
    for q in d["queries"].values():
        del q["wall_time"]
    return json.dumps(d)


class TestCounterexampleSources:
    @pytest.mark.parametrize("seed, most", [(0, 11), (2, 9), (3, 6)])
    def test_iteration_gate(self, seed, most):
        # `most`: the iterations these configs took with dsat alone.  They
        # are the cegis-nn10 benchmark pool, where sampling refutes every
        # candidate but the last.
        out = _cegis_nn10(seed)
        assert isinstance(out, certify.Certificate)
        iterations = {0: 3, 2: 3, 3: 4}[seed]
        assert out.iterations == iterations <= most
        assert out.refuted == {"sampling": iterations - 1, "dsat": 0}
        assert all(t.verdict == "UNSAT" for t in out.transcripts.values())
        assert certify.certificate_grid_oracle(out, _nn10_field()) == {
            "boundary": 0, "x0": 0, "unsafe": 0}

    def test_refuted_counts(self):
        out = _cegis_nn10(0)
        assert out.refuted["sampling"] > 0
        assert (out.refuted["sampling"] + out.refuted["dsat"]
                == out.iterations - 1)
        assert out.to_dict()["refuted"] == out.refuted
        # one round, so nothing refuted
        out = certify.verify(certify.default_spec(), _nn10_field(),
                             certify.CertifyConfig(seed=1))
        assert out.iterations == 1
        assert out.refuted == {"sampling": 0, "dsat": 0}

    def test_sampling_never_certifies(self, monkeypatch):
        # dsat refutes every candidate: sampling alone must not certify,
        # and every round that sampling lets through must reach dsat.
        rounds, dsat_calls = [], []
        falsify = certify.falsify

        def recorded(*args):
            rounds.append(falsify(*args))
            return rounds[-1]

        def always_sat(phi, domains, delta, max_boxes=None):
            dsat_calls.append(domains)
            return dsat.DsatResult("DELTA_SAT", domains[0], 1, 0.0)
        monkeypatch.setattr(certify, "falsify", recorded)
        monkeypatch.setattr(dsat, "check", always_sat)
        out = certify.verify(certify.default_spec(), _nn10_field(),
                             certify.CertifyConfig(seed=0, n_seed_traces=2,
                                                   max_iterations=6))
        assert isinstance(out, certify.Inconclusive)
        assert out.stage == "no_candidate"
        assert len(rounds) == 6
        # one dsat call per query, over all its slabs
        assert len(dsat_calls) == sum(not cex for cex in rounds) > 0
        assert all(len(domains) == 4 for domains in dsat_calls)
        assert any(rounds)

    def test_one_seed_one_certificate(self):
        again = certify.verify(certify.default_spec(), _nn10_field(),
                               certify.CertifyConfig(seed=3, n_seed_traces=2))
        assert _without_wall_times(again) == _without_wall_times(
            _cegis_nn10(3))

    def test_one_simulate_call_per_batch(self, monkeypatch):
        # every batch goes through simulate.simulate, the span that the
        # benchmark times: the seed batch, then one per refuted round
        calls = []
        simulate = sim.simulate

        def counted(*args):
            calls.append(simulate(*args))
            return calls[-1]
        monkeypatch.setattr(sim, "simulate", counted)
        out = certify.verify(certify.default_spec(), _nn10_field(),
                             certify.CertifyConfig(seed=0, n_seed_traces=2))
        assert isinstance(out, certify.Certificate)
        assert len(calls) == out.iterations == 3
        assert calls[0].states.shape[2] == 2     # the seed batch


class TestVerify:
    def test_bundled_box_counts(self):
        # boxes_explored depends only on the enclosures, not on the host
        net = nn.load(cli.bundled_controller_path(10))
        f = plant.dubins_closed_loop(plant.DubinsParams(), net)
        for seed, boxes in ((1, (1044, 1, 4)), (2, (830, 1, 4))):
            out = certify.verify(certify.default_spec(), f,
                                 certify.CertifyConfig(seed=seed))
            assert out.iterations == 1
            assert tuple(out.transcripts[name].boxes_explored for name in (
                "decrease", "init_containment", "unsafe_disjoint")) == boxes

    def test_diverging_field_is_inconclusive(self):
        # xdot = (x0^2, x1): the seed traces blow up in finite time
        f = plant.VectorField(2, (sx.mul(sx.var(0), sx.var(0)), sx.var(1)))
        out = certify.verify(certify.default_spec(), f)
        assert isinstance(out, certify.Inconclusive)
        assert out.stage == "simulation"

    def test_field_too_stiff_for_the_step_certifies(self, monkeypatch):
        # xdot = -100 x: at SIM_STEP, h lambda = -5 lies outside RK4's
        # stability interval and the traces blow up though the field
        # contracts; each batch is integrated again at the finer step.
        f = plant.VectorField(2, tuple(sx.mul(sx.const(-100.0), sx.var(i))
                                       for i in range(2)))
        steps = []
        simulate = sim.simulate

        def recorded(field, starts, duration, step):
            steps.append(step)
            return simulate(field, starts, duration, step)

        monkeypatch.setattr(sim, "simulate", recorded)
        out = certify.verify(_square_spec(), f)
        assert isinstance(out, certify.Certificate)
        assert certify.certificate_grid_oracle(out, f) == {
            "boundary": 0, "x0": 0, "unsafe": 0}
        fine = certify.SIM_STEP / certify.REFINE
        assert steps == [certify.SIM_STEP, fine] * out.iterations

    @pytest.mark.parametrize("spec,field", [
        (certify.SafetySpec(sx.box(*[(-0.1, 0.1)] * 3),
                            sx.box(*[(-1.0, 1.0)] * 3)),
         _contraction_field()),
        (_square_spec(), plant.VectorField(3, tuple(
            sx.neg(sx.var(i)) for i in range(3)))),
    ], ids=["spec-3-field-2", "spec-2-field-3"])
    def test_arity_mismatch_is_inconclusive(self, spec, field):
        out = certify.verify(spec, field)
        assert isinstance(out, certify.Inconclusive)
        assert out.stage == "arity"
        assert out.detail == "spec has arity %d, the field %d" % (
            spec.arity, field.arity)

    def test_level_budget_is_inconclusive(self, monkeypatch):
        def exhausted(*args):
            raise dsat.BudgetExhausted("explored more than 1 boxes")
        monkeypatch.setattr(certify, "select_level", exhausted)
        out = certify.verify(_square_spec(), _contraction_field())
        assert isinstance(out, certify.Inconclusive)
        assert out.stage == "budget"
        assert out.transcripts["decrease"].verdict == "UNSAT"

    def test_level_search_failure_keeps_the_decrease_transcript(
            self, monkeypatch):
        # with no probe allowed, the level search fails after CEGIS found
        # its candidate, and says so
        cert = certify.verify(_square_spec(), _contraction_field())
        monkeypatch.setattr(certify, "BISECTION_STEPS", 0)
        out = certify.verify(_square_spec(), _contraction_field())
        assert isinstance(out, certify.Inconclusive)
        assert out.stage == "no_level"
        assert out.detail.startswith("all 0 level probes between ")
        assert list(out.transcripts) == ["decrease"]
        assert out.transcripts["decrease"].verdict == "UNSAT"
        assert out.iterations == cert.iterations

    @pytest.mark.parametrize("exc,stage", [
        (certify.NoCandidateError, "no_candidate"),
        (dsat.BudgetExhausted, "budget"),
        (sim.SimulationDivergence, "simulation"),
        (lpgen.LPUnboundedError, "lp_unbounded"),
        (lpgen.PivotLimitError, "lp"),
        (certify.NotEllipsoidError, "no_level"),
        (certify.NoLevelError, "no_level"),
        (plant.ArityError, "arity"),
    ])
    def test_failure_stage(self, monkeypatch, exc, stage):
        def fail(*args):
            raise exc("raised in find_generator")
        monkeypatch.setattr(certify, "find_generator", fail)
        out = certify.verify(_square_spec(), _contraction_field())
        assert isinstance(out, certify.Inconclusive)
        assert (out.stage, out.detail) == (stage, "raised in find_generator")
        assert (out.transcripts, out.iterations) == ({}, 0)

    @pytest.mark.parametrize("exc,stage", [
        (None, "no_candidate"),
        (dsat.BudgetExhausted, "budget"),
        (sim.SimulationDivergence, "simulation"),
        (lpgen.LPUnboundedError, "lp_unbounded"),
        (lpgen.PivotLimitError, "lp"),
    ])
    def test_failure_reports_its_round(self, monkeypatch, exc, stage):
        # the second LP fails; nn10 n_seed_traces=2 seed 0 takes 3 rounds,
        # so round 2 is reached.  None: the LP margin is nonpositive.
        solve_lp, calls = lpgen.solve_lp, []

        def second_fails(lp):
            calls.append(lp)
            if len(calls) < 2:
                return solve_lp(lp)
            if exc is None:
                return np.zeros(lp.rows.shape[1])
            raise exc("round two")
        monkeypatch.setattr(lpgen, "solve_lp", second_fails)
        out = certify.verify(certify.default_spec(), _nn10_field(),
                             certify.CertifyConfig(seed=0, n_seed_traces=2))
        assert isinstance(out, certify.Inconclusive)
        assert (out.stage, out.iterations) == (stage, 2)
        if exc is None:
            assert out.detail == "LP margin nonpositive at iteration 2"

    def test_failure_keeps_refuted_decrease_transcripts(self):
        # nn10 n_seed_traces=2 seed 1 certifies in round 4; sampling
        # refutes rounds 1 and 2, dsat round 3 (its first decrease query,
        # golden case nn10_seed1_nst2_decrease_1).  With three rounds
        # allowed, find_generator raises after round 3.
        out = certify.verify(certify.default_spec(), _nn10_field(),
                             certify.CertifyConfig(seed=1, n_seed_traces=2,
                                                   max_iterations=3))
        assert isinstance(out, certify.Inconclusive)
        assert (out.stage, out.iterations) == ("no_candidate", 3)
        assert list(out.transcripts) == ["decrease_3"]
        t = out.transcripts["decrease_3"]
        want = json.loads((Path(__file__).parent / "data" / "dsat_golden.json"
                           ).read_text())["nn10_seed1_nst2_decrease_1"]
        assert (t.name, t.verdict, t.boxes_explored) == (
            "decrease", "DELTA_SAT", 47) == ("decrease", want["verdict"],
                                             want["boxes_explored"])
        assert [[repr(lo), repr(hi)] for lo, hi in t.witness.bounds.tolist()
                ] == want["witness"]

    def test_unbounded_lp_is_inconclusive(self, monkeypatch):
        def unbounded(lp):
            raise lpgen.LPUnboundedError("LP unbounded; add box constraints")
        monkeypatch.setattr(lpgen, "solve_lp", unbounded)
        out = certify.verify(_square_spec(), _contraction_field())
        assert isinstance(out, certify.Inconclusive)
        assert out.stage == "lp_unbounded"

    def test_end_to_end_hand_controller(self):
        f = _hand_controller_field()
        out = certify.verify(certify.default_spec(), f)
        assert isinstance(out, certify.Certificate)
        assert out.iterations <= 10
        for t in out.transcripts.values():
            assert t.verdict == "UNSAT"
        assert certify.certificate_grid_oracle(out, f) == {
            "boundary": 0, "x0": 0, "unsafe": 0}

    def test_unsafe_constant_controller_inconclusive(self):
        # hard left turn regardless of state: violates the spec, so the
        # procedure must not certify
        net = nn.Network((nn.make_layer([[0.0, 0.0]], [5.0], "tanh"),
                          nn.make_layer([[1.0]], [5.0], "tanh")))
        f = plant.dubins_closed_loop(plant.DubinsParams(), net)
        cfg = certify.CertifyConfig(max_iterations=5)
        out = certify.verify(certify.default_spec(), f, cfg)
        assert isinstance(out, certify.Inconclusive)

    def test_certificate_round_trip(self, tmp_path):
        f = _hand_controller_field()
        out = certify.verify(certify.default_spec(), f)
        path = tmp_path / "certificate.json"
        out.save(path)
        back = certify.load_certificate(path)
        assert np.array_equal(back.candidate.p_matrix, out.candidate.p_matrix)
        assert back.level == out.level
        assert back.gamma == out.gamma
        assert back.controller_hash == out.controller_hash
        saved = out.to_dict()
        saved["queries"] = {}   # transcripts are not loaded
        assert back.to_dict() == saved


def _certificate_dict():
    cert = certify.Certificate(_identity_candidate(), 0.5, 1e-3, 1e-3, {},
                               certify.default_spec(), "abc", 3,
                               {"sampling": 2, "dsat": 0})
    return cert.to_dict()


def _set(path, value):
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
    return edit


def _with_c(c):
    """An edit setting the generator's c, with the expr and grad text that
    candidate_from builds with it."""
    def edit(d):
        gen = d["generator"]
        tmpl = lpgen.QuadraticTemplate(len(gen["q_vector"]))
        cand = lpgen.candidate_from(
            [gen["p_matrix"][i][j] for i, j in tmpl.pairs]
            + gen["q_vector"] + [c], tmpl)
        gen.update(c=c, expr=sx.to_sexpr(cand.expr),
                   grad=[sx.to_sexpr(g) for g in cand.grad])
    return edit


class TestCertificateFile:
    def test_hand_built_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_certificate_dict()))
        back = certify.load_certificate(path)
        assert back.to_dict() == _certificate_dict()

    def test_recorded_file_loads(self):
        # written by `barricade verify --nn nn10 --seed 1` before the
        # gradient was built in closed form
        path = Path(__file__).parent / "data" / "nn10_seed1_certificate.json"
        back = certify.load_certificate(path)
        saved = json.loads(path.read_text())
        saved["queries"] = {}   # transcripts are not loaded
        assert back.to_dict() == saved

    def test_recorded_file_is_what_verify_writes(self):
        # the whole search of `barricade verify --nn nn10 --seed 1`, LP
        # bits included, apart from the queries' wall times
        path = Path(__file__).parent / "data" / "nn10_seed1_certificate.json"
        net = nn.load(cli.bundled_controller_path(10))
        out = certify.verify(
            certify.default_spec(),
            plant.dubins_closed_loop(plant.DubinsParams(), net),
            certify.CertifyConfig(seed=1), nn.controller_hash(net))
        fresh, saved = out.to_dict(), json.loads(path.read_text())
        for data in (fresh, saved):
            for query in data["queries"].values():
                del query["wall_time"]
        assert fresh == saved

    def test_file_without_refuted_counts_loads(self, tmp_path):
        # 0.2.0 files predate the counts
        data = _certificate_dict()
        del data["refuted"]
        data["version"] = "0.2.0"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        back = certify.load_certificate(path)
        assert back.refuted is None
        assert back.iterations == 3

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("generator"),
        _set(("generator", "grad"), 5),
        _set(("generator", "expr"), 3),
        _set(("generator", "expr"), "(var 0"),
        _set(("generator", "grad"), ["(var -1)", "(const abc)"]),
        _set(("generator", "p_matrix"), [[1.0]]),
        _set(("generator", "q_vector"), [0.0, None]),
        _set(("level",), None),
        _set(("spec", "x0"), 1.0),
        _set(("generator", "expr"), "(var 0)"),
        lambda d: d["generator"]["grad"].reverse(),
        _set(("generator", "p_matrix"), [[1.0, 0.5], [0.0, 1.0]]),
        _set(("level",), math.nan),
        _set(("level",), math.inf),
        _set(("gamma",), math.nan),
        _set(("delta",), -math.inf),
        _set(("refuted",), {"sampling": 1}),
        _set(("refuted",), 2),
        _set(("level",), "1.5"),
        _set(("gamma",), True),
        lambda d: d["generator"].update(c=str(d["generator"]["c"])),
        _set(("gamma",), 0.0),
        _set(("delta",), -1e-3),
        _set(("iterations",), 2.7),
        _set(("iterations",), -4),
        _set(("refuted",), {"sampling": 0.9, "dsat": "0"}),
        _set(("controller_hash",), 12),
        # each keeps the number's value, so only the type check rejects it
        _set(("spec", "x0", 0, 0), "-0.1"),
        _set(("spec", "safe_rect", 0, 1), True),
        _set(("generator", "q_vector", 0), "0.0"),
        _set(("generator", "p_matrix", 0, 0), True),
        _set(("level",), 10 ** 400),    # no float holds it
        _set(("spec", "u"), []),        # SafetySpec.from_dict's exact keys
        _with_c(math.nan),              # expr and grad rebuilt with c
        _with_c(math.inf),
    ], ids=["no_generator", "grad_int", "expr_int", "expr_open",
            "grad_bad_forms", "p_shape", "q_null", "level_null", "x0_float",
            "expr_tampered", "grad_swapped", "p_asymmetric", "level_nan",
            "level_inf", "gamma_nan", "delta_neg_inf", "refuted_partial",
            "refuted_int", "level_str", "gamma_bool", "c_str", "gamma_zero",
            "delta_neg", "iterations_float", "iterations_neg",
            "refuted_not_counts", "hash_int", "x0_str", "safe_rect_bool",
            "q_str", "p_bool", "level_huge_int", "spec_extra_key", "c_nan",
            "c_inf"])
    def test_malformed_file_is_value_error(self, tmp_path, edit):
        data = _certificate_dict()
        edit(data)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            certify.load_certificate(path)


def _linear3_field():
    """A stable linear field at arity 3."""
    x0, x1, x2 = (sx.var(i) for i in range(3))
    half = sx.const(0.5)
    return plant.VectorField(3, (
        sx.add(sx.neg(x0), sx.mul(half, x1)),
        sx.add(sx.neg(x1), sx.mul(half, x2)),
        sx.sub(sx.mul(sx.const(-0.3), x0), x2)))


def _cube_spec():
    return certify.SafetySpec(sx.box(*[(-0.1, 0.1)] * 3),
                              sx.box(*[(-1.0, 1.0)] * 3))


def _hmin(cert):
    return _unsafe_min(cert.candidate, cert.spec)


def _violated(cert, field):
    counts = certify.certificate_grid_oracle(cert, field)
    return {k for k, v in counts.items() if v}


class TestGridOracle:
    def test_any_arity_and_mismatch_rejected(self):
        cand3 = lpgen.candidate_from([1.0, 0.0, 0.0, 1.0, 0.0, 1.0,
                                      0.0, 0.0, 0.0, 0.0],
                                     lpgen.QuadraticTemplate(3))
        field3 = plant.VectorField(3, tuple(sx.neg(sx.var(i))
                                            for i in range(3)))
        cert3 = certify.Certificate(cand3, 0.5, 1e-6, 1e-3, {},
                                    _cube_spec(), "", 1)
        cert2 = certify.Certificate(_identity_candidate(), 0.5, 1e-6, 1e-3,
                                    {}, _square_spec(), "", 1)
        for cert, field in ((cert2, field3), (cert3, _contraction_field())):
            with pytest.raises(ValueError):
                certify.certificate_grid_oracle(cert, field)
        zero = {"boundary": 0, "x0": 0, "unsafe": 0}
        assert certify.certificate_grid_oracle(cert2,
                                               _contraction_field()) == zero
        assert certify.certificate_grid_oracle(cert3, field3) == zero

    def test_no_ellipsoid_is_an_error(self):
        # P = diag(1, -1), and a level at or below v's minimum: the
        # boundary of L cannot be sampled, which is an error, not NaN
        # points that count as no violation
        indefinite = lpgen.candidate_from([1.0, 0.0, -1.0, 0.0, 0.0, 0.0],
                                          lpgen.QuadraticTemplate(2))
        for cand, level, exc in ((indefinite, 0.5, certify.NotEllipsoidError),
                                 (_identity_candidate(), 0.0, ValueError),
                                 (_identity_candidate(), -1.0, ValueError)):
            cert = certify.Certificate(cand, level, 1e-6, 1e-3, {},
                                       _square_spec(), "", 1)
            with pytest.raises(exc) as info:
                certify.certificate_grid_oracle(cert, _contraction_field())
            assert (exc is ValueError) != isinstance(
                info.value, certify.NotEllipsoidError)

    @pytest.mark.parametrize("planted", ["unsafe", "x0", "boundary"])
    def test_planted_violation_found(self, planted):
        cert = certify.load_certificate(
            Path(__file__).parent / "data" / "nn10_seed1_certificate.json")
        field = _nn10_field()
        assert _violated(cert, field) == set()
        if planted == "unsafe":
            # just above v's exact minimum over U, reached on a face of
            # the safe rectangle, where a grid over U need not land
            cert = dataclasses.replace(cert, level=1.002 * _hmin(cert))
        elif planted == "x0":
            cert = dataclasses.replace(
                cert, level=0.998 * certify.vertex_max(cert.candidate,
                                                       cert.spec.x0))
        else:
            field = plant.VectorField(2, tuple(sx.neg(c)
                                               for c in field.components))
        assert _violated(cert, field) == {planted}

    def test_chunked_boundary_counts_equal_one_shot(self, monkeypatch):
        recorded = certify.load_certificate(
            Path(__file__).parent / "data" / "nn10_seed1_certificate.json")
        field3 = _linear3_field()
        cert3 = certify.verify(_cube_spec(), field3,
                               certify.CertifyConfig(seed=0))
        cases = [(recorded, _nn10_field()),
                 (dataclasses.replace(recorded, level=1.002 * recorded.level),
                  _nn10_field()),
                 (dataclasses.replace(recorded, level=3.0 * recorded.level),
                  _nn10_field()),
                 (cert3, field3)]
        chunked = [certify.certificate_grid_oracle(c, f) for c, f in cases]
        assert certify.ORACLE_CHUNK < certify.ORACLE_BOUNDARY
        for size in (certify.ORACLE_BOUNDARY, 3001):
            monkeypatch.setattr(certify, "ORACLE_CHUNK", size)
            assert [certify.certificate_grid_oracle(c, f)
                    for c, f in cases] == chunked
        assert 0 < chunked[2]["boundary"] < certify.ORACLE_BOUNDARY

    def test_arity_three_certificate(self):
        field = _linear3_field()
        cert = certify.verify(_cube_spec(), field,
                              certify.CertifyConfig(seed=0))
        assert isinstance(cert, certify.Certificate)
        assert cert.iterations == 1
        assert _violated(cert, field) == set()
        cert = dataclasses.replace(cert, level=1.02 * _hmin(cert))
        assert _violated(cert, field) == {"unsafe"}
