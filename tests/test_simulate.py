"""RK4 integration and trace generation."""

import math
import signal

import numpy as np
import pytest

from barricade import certify
from barricade import cli
from barricade import network as nn
from barricade import plant
from barricade import simulate as sim
from barricade import symexpr as sx


def _const_zero_field():
    return plant.VectorField(1, (sx.const(0.0),))


def _exp_field():
    # xdot = x
    return plant.VectorField(1, (sx.var(0),))


def _dubins_zero_controller():
    net = nn.Network((nn.make_layer([[0.0, 0.0]], [0.0], "tanh"),))
    return plant.dubins_closed_loop(plant.DubinsParams(), net)


class TestRk4:
    def test_zero_field_fixed_point(self):
        f = _const_zero_field().eval_at
        assert sim.rk4_step(f, [2.5], 0.1) == [2.5]

    def test_exponential_hand_value(self):
        f = _exp_field().eval_at
        got = sim.rk4_step(f, [1.0], 0.1)[0]
        # RK4 truncation of e^0.1: 1 + h + h^2/2 + h^3/6 + h^4/24
        h = 0.1
        ref = 1 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24
        assert abs(got - ref) < 1e-15

    def test_order_four_convergence(self):
        f = _exp_field()
        errors = []
        for h in (0.1, 0.05, 0.025):
            tr = sim.simulate(f, [1.0], 1.0, h)
            errors.append(abs(tr.states[-1, 0] - math.e))
        assert errors[0] / errors[1] > 12.0
        assert errors[1] / errors[2] > 12.0

    def test_bad_step(self):
        with pytest.raises(ValueError):
            sim.rk4_step(_const_zero_field().eval_at, [0.0], 0.0)


class TestSimulate:
    def test_trace_length(self):
        tr = sim.simulate(_const_zero_field(), [0.0], 10.0, 0.01)
        assert len(tr) == 1001

    def test_zero_field_constant(self):
        tr = sim.simulate(_const_zero_field(), [1.5], 1.0, 0.1)
        assert np.all(tr.states == 1.5)

    def test_dubins_uncontrolled_growth(self):
        # u = 0 keeps theta_e fixed, so d_err(t) = t sin(0.1)
        field = _dubins_zero_controller()
        tr = sim.simulate(field, [0.0, 0.1], 1.0, 0.01)
        assert abs(tr.states[-1, 0] - math.sin(0.1)) < 1e-8
        assert abs(tr.states[-1, 1] - 0.1) < 1e-15

    def test_derivs_match_field(self):
        field = _dubins_zero_controller()
        tr = sim.simulate(field, [0.2, -0.1], 0.5, 0.05)
        for x, dx in zip(tr.states, tr.derivs):
            assert list(dx) == field.eval_at(list(x))

    def test_divergence_guard(self):
        field = plant.VectorField(1, (sx.mul(sx.const(50.0), sx.var(0)),))
        with pytest.raises(sim.SimulationDivergence):
            sim.simulate(field, [1.0], 10.0, 0.1)


class TestSeedTraces:
    def test_determinism(self):
        field = _dubins_zero_controller()
        region = sx.box((-1.0, 1.0), (-0.5, 0.5))
        a = sim.seed_traces(field, region, 5, 1.0, 0.1, rng_seed=42)
        b = sim.seed_traces(field, region, 5, 1.0, 0.1, rng_seed=42)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.states, tb.states)

    def test_count_and_membership(self):
        field = _dubins_zero_controller()
        region = sx.box((-1.0, 1.0), (-0.5, 0.5))
        inner = sx.box((-0.1, 0.1), (-0.1, 0.1))
        traces = sim.seed_traces(field, region, 30, 0.5, 0.1, 7,
                                 exclude=inner)
        assert len(traces) == 30
        for tr in traces:
            x0 = tr.states[0]
            assert region.contains(x0)
            assert not inner.contains(x0)


    def test_region_inside_exclude_raises(self):
        # No draw could be kept: this looped forever before the check.
        field = _dubins_zero_controller()
        region = sx.box((-1.0, 1.0), (-0.5, 0.5))

        def hung(signum, frame):
            raise TimeoutError("seed_traces did not return within 10 s")
        old = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            for exclude in (region, sx.box((-2.0, 1.0), (-0.5, 3.0))):
                with pytest.raises(ValueError):
                    sim.seed_traces(field, region, 2, 0.1, 0.01, 0,
                                    exclude=exclude)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)


def _bundled_field(size, gain=1.0):
    net = nn.load(cli.bundled_controller_path(size))
    return plant.dubins_closed_loop(plant.DubinsParams(), net, gain=gain)


def _scalar_rk4_states(field, x0, n_steps, step):
    f = field.eval_at
    x = [float(v) for v in x0]
    out = [x]
    for _ in range(n_steps):
        x = sim.rk4_step(f, x, step)
        out.append(x)
    return np.array(out)


class TestSimulateBatch:
    @pytest.mark.parametrize("size,count", [(10, 20), (100, 8)])
    def test_members_match_scalar_rk4(self, size, count):
        field = _bundled_field(size)
        rng = np.random.default_rng(size)
        starts = rng.uniform([-1.0, -1.5], [1.0, 1.5], size=(count, 2))
        traces = sim.simulate_batch(field, starts, 10.0, 0.01)
        assert len(traces) == count
        for x0, tr in zip(starts, traces):
            ref = _scalar_rk4_states(field, x0, 1000, 0.01)
            assert np.max(np.abs(tr.states - ref)) <= 1e-12
            ref_d = np.array([field.eval_at(list(x)) for x in tr.states])
            assert np.max(np.abs(tr.derivs - ref_d)) <= 1e-12

    def test_one_diverging_member_raises(self):
        field = plant.VectorField(1, (sx.mul(sx.var(0), sx.var(0)),))
        with pytest.raises(sim.SimulationDivergence):
            sim.simulate_batch(field, [[-1.0], [0.1], [5.0]], 1.0, 0.01)

    def test_nan_counts_as_divergence(self):
        field = plant.VectorField(1, (sx.neg(sx.var(0)),))
        with pytest.raises(sim.SimulationDivergence):
            sim.simulate_batch(field, [[1.0], [math.nan]], 1.0, 0.1)

    def test_seed_starts_match_rejection_loop(self):
        field = _dubins_zero_controller()
        region = sx.box((-1.0, 1.0), (-0.5, 0.5))
        inner = sx.box((-0.1, 0.1), (-0.1, 0.1))
        traces = sim.seed_traces(field, region, 30, 0.5, 0.1, 42,
                                 exclude=inner)
        assert traces[0].states[0].tolist() == [0.5479120971119267,
                                                -0.06112156024794768]
        # one start at a time, rejecting draws inside `inner`
        rng = np.random.default_rng(42)
        expected = []
        while len(expected) < 30:
            x0 = rng.uniform([-1.0, -0.5], [1.0, 0.5])
            if not inner.contains(x0):
                expected.append(x0)
        for tr, x0 in zip(traces, expected):
            assert np.array_equal(tr.states[0], x0)


class TestPipelineGrid:
    """The states certify reads: LP rows at every SUBSAMPLE-th state and
    the falsifier's midpoints halfway between them."""

    def test_read_times(self):
        tr = sim.simulate(_dubins_zero_controller(), [0.5, 0.3],
                          certify.SIM_DURATION, certify.SIM_STEP)
        rows = tr.times[::certify.SUBSAMPLE]
        mids = tr.times[certify.SUBSAMPLE // 2::certify.SUBSAMPLE]
        assert np.allclose(rows, 0.1 * np.arange(101), rtol=0, atol=1e-12)
        assert np.allclose(mids, 0.05 + 0.1 * np.arange(100), rtol=0,
                           atol=1e-12)

    @pytest.mark.parametrize("gain", [1.0, 3.0])
    def test_states_read_match_a_fine_reference(self, gain):
        # nn10 on 20 seeded starts, against RK4 at h = 0.001: guards
        # against a step too coarse for the field.  At gain 3, SIM_STEP
        # alone is 2e-3 off, and the batch must be integrated finer.
        field = _bundled_field(10, gain)
        spec = certify.default_spec()

        def seed(step):
            return sim.seed_traces(field, spec.safe_rect, 20,
                                   certify.SIM_DURATION, step, 0,
                                   exclude=spec.x0)

        coarse, fine = certify._on_read_grid(seed), seed(0.001)
        stride = round(certify.SIM_STEP / 0.001)
        read = np.union1d(np.arange(0, len(coarse[0]), certify.SUBSAMPLE),
                          np.arange(certify.SUBSAMPLE // 2, len(coarse[0]),
                                    certify.SUBSAMPLE))
        for c, r in zip(coarse, fine):
            assert np.allclose(c.times[read], r.times[read * stride],
                               rtol=0, atol=1e-12)
            assert np.max(np.abs(c.states[read]
                                 - r.states[read * stride])) <= 1e-4

    @pytest.mark.parametrize("gain, refined", [(1.0, False), (10.0, True)])
    def test_stiff_batch_integrated_finer(self, gain, refined):
        # gain 10 does not diverge at SIM_STEP, but SIM_STEP * stiffness
        # is 4.6; the read states are then those of the finer step
        field = _bundled_field(10, gain)
        starts = [[0.5, 0.3], [-0.8, 0.6]]

        def batch(step):
            return sim.simulate_batch(field, starts, certify.SIM_DURATION,
                                      step)

        got = certify._on_read_grid(batch)
        fine = certify.SIM_STEP / certify.REFINE
        want = ([tr.states[::certify.REFINE] for tr in batch(fine)]
                if refined else [tr.states for tr in batch(certify.SIM_STEP)])
        assert [np.array_equal(g.states, w) for g, w in zip(got, want)] == [
            True, True]
        assert (certify.SIM_STEP * sim.stiffness(batch(certify.SIM_STEP))
                > certify.STIFF_LIMIT) == refined


class TestStiffness:
    def test_linear_field_gives_its_rate(self):
        f = plant.VectorField(2, tuple(sx.mul(sx.const(-3.0), sx.var(i))
                                       for i in range(2)))
        tr = sim.simulate(f, [0.5, -0.2], 1.0, 0.05)
        assert sim.stiffness([tr]) == pytest.approx(3.0, rel=1e-9)

    def test_rotation_gives_its_frequency(self):
        f = plant.VectorField(2, (sx.mul(sx.const(7.0), sx.var(1)),
                                  sx.mul(sx.const(-7.0), sx.var(0))))
        tr = sim.simulate(f, [1.0, 0.0], 1.0, 0.01)
        assert sim.stiffness([tr]) == pytest.approx(7.0, rel=1e-9)

    def test_no_motion_is_zero(self):
        tr = sim.simulate(_const_zero_field(), [2.5], 1.0, 0.1)
        assert sim.stiffness([tr]) == 0.0


def _rk4_in_operator_order(field, starts, n_steps, step):
    """The lockstep RK4 loop with numpy's operators, a fresh array per
    operation: the reference that simulate_batch must equal bit for bit.
    Returns the states and derivatives as (steps + 1, n, B) arrays."""
    f = field.batched
    half, h, sixth, two = (np.array(v)
                           for v in (0.5 * step, step, step / 6.0, 2.0))
    x = np.array(starts, dtype=float).T
    k1 = f(x)
    states, derivs = [x], [k1]
    for _ in range(n_steps):
        k2 = f(x + half * k1)
        k3 = f(x + half * k2)
        k4 = f(x + h * k3)
        x = x + sixth * (k1 + two * k2 + two * k3 + k4)
        k1 = f(x)
        states.append(x)
        derivs.append(k1)
    return np.array(states), np.array(derivs)


class TestSimulateBatchBits:
    @pytest.mark.parametrize("width", [1, 2, 40])
    def test_equals_operator_order_rk4(self, width):
        field = _bundled_field(10)
        starts = np.random.default_rng(width).uniform(
            [-1.0, -1.5], [1.0, 1.5], size=(width, 2))
        traces = sim.simulate_batch(field, starts, 10.0, 0.01)
        states, derivs = _rk4_in_operator_order(field, starts, 1000, 0.01)
        assert len(traces) == width
        for b, tr in enumerate(traces):
            assert tr.states.shape == tr.derivs.shape == (1001, 2)
            assert tr.states.tobytes() == states[:, :, b].tobytes()
            assert tr.derivs.tobytes() == derivs[:, :, b].tobytes()

    @pytest.mark.parametrize("width", [1, 2, 40, nn.REPEAT_MAX + 1])
    @pytest.mark.parametrize("field", [
        lambda: _bundled_field(100),
        lambda: plant.dubins_closed_loop(plant.DubinsParams(), _net(
            np.random.default_rng(8), (2, 6, 1), ("sigmoid", "sigmoid"))),
        lambda: plant.VectorField(2, (sx.var(1), sx.sub(
            sx.neg(sx.div(sx.var(0), sx.add(sx.const(1.0),
                                            sx.pow_(sx.var(1), 2)))),
            sx.mul(sx.const(0.1), sx.pow_(sx.var(1), 3))))),
    ], ids=["nn100", "sigmoid-2-layer", "pow-div"])
    def test_other_fields_equal_operator_order_rk4(self, field, width):
        # the registers of a bound program, over 2 s of each field
        field = field()
        starts = np.random.default_rng(width).uniform(
            [-1.0, -1.5], [1.0, 1.5], size=(width, 2))
        traces = sim.simulate_batch(field, starts, 2.0, 0.01)
        states, derivs = _rk4_in_operator_order(field, starts, 200, 0.01)
        assert len(traces) == width
        for b, tr in enumerate(traces):
            assert tr.states.tobytes() == states[:, :, b].tobytes()
            assert tr.derivs.tobytes() == derivs[:, :, b].tobytes()

    def test_divergence_names_the_first_step_past_the_guard(self):
        field = plant.VectorField(1, (sx.mul(sx.var(0), sx.var(0)),))
        with pytest.raises(sim.SimulationDivergence,
                           match=r"^state exceeded 1e\+06 at t=0\.21$"):
            sim.simulate_batch(field, [[-1.0], [0.1], [5.0]], 1.0, 0.01)

    @pytest.mark.parametrize("starts", [
        [[0.1, 0.2, 0.3]], [0.1, 0.2], [[0.1]], np.empty((0, 2))],
        ids=["three-states", "one-dimensional", "one-state", "no-starts"])
    def test_starts_must_be_batch_by_arity(self, starts):
        with pytest.raises(ValueError, match="must be \\(B, 2\\), B >= 1"):
            sim.simulate_batch(_dubins_zero_controller(), starts, 1.0, 0.1)

def _net(rng, widths, activations):
    return nn.Network(tuple(
        nn.make_layer(rng.uniform(-1.5, 1.5, size=(d_out, d_in)),
                      rng.uniform(-0.5, 0.5, size=d_out), act)
        for d_in, d_out, act in zip(widths, widths[1:], activations)))


def _assert_within_ulps(got, ref, ulps=8):
    ref = np.asarray(ref, dtype=float)
    assert np.all(np.abs(got - ref)
                  <= ulps * np.spacing(np.maximum(np.abs(ref), 1.0)))


class TestBatchedField:
    @pytest.mark.parametrize("widths,acts,gain", [
        ((2, 1), ("tanh",), 1.0),
        ((2, 6, 1), ("sigmoid", "sigmoid"), 1.0),
        ((2, 6, 1), ("identity", "identity"), 1.0),
        ((2, 5, 4, 1), ("tanh", "sigmoid", "identity"), 1.0),
        ((2, 6, 1), ("tanh", "tanh"), 2.0),
    ], ids=["tanh", "sigmoid", "identity", "three-layer", "gain-2"])
    def test_closed_loop_matches_eval_at(self, widths, acts, gain):
        rng = np.random.default_rng(len(widths) + int(gain))
        field = plant.dubins_closed_loop(
            plant.DubinsParams(), _net(rng, widths, acts), gain=gain)
        xs = rng.uniform(-1.5, 1.5, size=(2, 40))
        got = field.batched(xs)
        for b in range(xs.shape[1]):
            _assert_within_ulps(got[:, b], field.eval_at(list(xs[:, b])))

    def test_output_map_is_applied(self):
        rng = np.random.default_rng(4)
        output = [sx.sub(sx.var(0), sx.var(1)), sx.const(0.25)]
        field = plant.close_loop(plant.dubins_error_field(
            plant.DubinsParams()), output, _net(rng, (2, 3, 1),
                                                ("tanh", "tanh")))
        xs = rng.uniform(-1.0, 1.0, size=(2, 7))
        got = field.batched(xs)
        for b in range(xs.shape[1]):
            _assert_within_ulps(got[:, b], field.eval_at(list(xs[:, b])))

    def test_sequence_input_equals_array(self):
        field = plant.VectorField(2, (sx.const(0.5),
                                      sx.mul(sx.var(0), sx.sin(sx.var(1)))))
        xs = np.random.default_rng(6).uniform(-2.0, 2.0, size=(2, 5))
        want = field.batched(xs)
        assert np.array_equal(field.batched(list(xs)), want)
        assert np.array_equal(field.batched(xs.tolist()), want)
        assert np.array_equal(field.batched([[0.0], [0.0]]),
                              field.batched(np.zeros((2, 1))))

    def test_plain_field_with_constant_component(self):
        field = plant.VectorField(2, (sx.const(0.5),
                                      sx.mul(sx.var(0), sx.sin(sx.var(1)))))
        xs = np.random.default_rng(5).uniform(-2.0, 2.0, size=(2, 9))
        got = field.batched(xs)
        assert got.shape == (2, 9)
        for b in range(xs.shape[1]):
            _assert_within_ulps(got[:, b], field.eval_at(list(xs[:, b])))
