"""Fixed-step RK4 integration of a closed-loop vector field.

A batch of starts is integrated in lockstep by the field's program bound
to the batch's width, each numpy call writing through its out into
registers, stage buffers or one (steps + 1, n, B) array that each Trace
views.  It matches the checker's f within a few ulps, enough for the LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIVERGENCE_LIMIT = 1.0e6
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


class SimulationDivergence(RuntimeError):
    """A state component exceeded the divergence guard."""


@dataclass(frozen=True)
class Trace:
    times: np.ndarray
    states: np.ndarray   # shape (k, n)
    derivs: np.ndarray   # shape (k, n)

    def __len__(self):
        return len(self.times)


def rk4_step(f, x, h):
    """One classical Runge-Kutta 4 step; f is a callable state -> deriv."""
    if not h > 0:
        raise ValueError("step must be positive")
    k1 = f(x)
    k2 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
    return [xi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def simulate(field, x0, duration, step):
    """Integrate for floor(duration/step) steps, recording every state."""
    return simulate_batch(field, [x0], duration, step)[0]


def simulate_batch(field, starts, duration, step):
    """simulate() for every start, in lockstep; one Trace per start.

    starts is (B, n), n the field's arity.  Raises SimulationDivergence
    when a state component of any member leaves the guard or turns NaN.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    if duration < step:
        raise ValueError("duration shorter than one step")
    x0 = np.array(starts, dtype=float)
    if x0.ndim != 2 or x0.shape[1] != field.arity or not len(x0):
        raise ValueError("starts must be (B, %d), B >= 1" % field.arity)
    f = field.batched.bind(len(x0))
    n_steps = int(np.floor(duration / step + 1e-12))
    states, derivs = np.empty((2, n_steps + 1) + x0.T.shape)
    states[0] = x0.T
    k2, k3, k4, xs, acc = np.empty((5,) + x0.T.shape)
    # As 0-d arrays, numpy scales a small array by these about twice as
    # fast as by Python floats; the products are the same.
    half, h, sixth, two = (np.array(v)
                           for v in (0.5 * step, step, step / 6.0, 2.0))
    # Overflow and invalid operations give inf or NaN, which fail the guard.
    with np.errstate(all="ignore"):
        f(states[0], derivs[0])
        for x, k1, x_next, k1_next in zip(states, derivs, states[1:],
                                          derivs[1:]):
            f(np.add(x, np.multiply(half, k1, xs), xs), k2)
            f(np.add(x, np.multiply(half, k2, xs), xs), k3)
            f(np.add(x, np.multiply(h, k3, xs), xs), k4)
            # x + sixth * (k1 + two * k2 + two * k3 + k4), in that order
            np.add(k1, np.multiply(two, k2, acc), acc)
            np.add(acc, np.multiply(two, k3, xs), acc)
            np.add(acc, k4, acc)
            np.add(x, np.multiply(sixth, acc, acc), x_next)
            f(x_next, k1_next)
    ok = ((states[1:].max(axis=(1, 2)) <= DIVERGENCE_LIMIT)
          & (states[1:].min(axis=(1, 2)) >= -DIVERGENCE_LIMIT))
    if not ok.all():    # max and min keep NaN, which fails both tests
        raise SimulationDivergence("state exceeded %g at t=%g" % (
            DIVERGENCE_LIMIT, (ok.argmin() + 1) * step))
    times = np.arange(n_steps + 1) * step
    return [Trace(times, states[:, :, b], derivs[:, :, b])
            for b in range(len(x0))]


def stiffness(traces):
    """The largest |f(x') - f(x)| / |x' - x| over the steps x -> x' of
    `traces`, all of one length: |lambda| for a linear field, and a
    lower bound on f's Lipschitz constant along the traces for any
    field.  Steps shorter than sqrt(eps) * (1 + |x|), where rounding in
    f would swamp the difference, are skipped; 0.0 when none is left."""
    states = np.stack([tr.states for tr in traces], axis=2)
    derivs = np.stack([tr.derivs for tr in traces], axis=2)
    dx = np.linalg.norm(np.diff(states, axis=0), axis=1)
    df = np.linalg.norm(np.diff(derivs, axis=0), axis=1)
    long = dx > _SQRT_EPS * (1.0 + np.linalg.norm(states[:-1], axis=1))
    return float(np.max(df[long] / dx[long])) if long.any() else 0.0


def seed_traces(field, region, count, duration, step, rng_seed, exclude=None):
    """Simulate from `count` initial states drawn uniformly from `region`.

    `exclude`, when given, is a sub-box rejected from the sample (used to
    draw from the annular domain between the initial set and the unsafe
    set).  Deterministic under rng_seed.  All starts are drawn first, then
    integrated as one batch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    starts = sample_box(np.random.default_rng(rng_seed), region, count,
                        exclude)
    return simulate_batch(field, starts, duration, step)


def sample_box(rng, region, count, exclude=None):
    """(count, n) points drawn uniformly from the box `region`, those in
    the box `exclude` rejected.  They are the points that drawing one at a
    time from rng and skipping the excluded ones would keep, in that order.
    Raises ValueError when `exclude` holds both corners of `region`, where
    no draw could be kept."""
    lows, highs = region.bounds.T
    if exclude is None:
        return rng.uniform(lows, highs, size=(count, len(lows)))
    if exclude.contains(region.bounds.T).all():
        raise ValueError("the sampled region lies inside the excluded box")
    points = np.empty((0, len(lows)))
    while len(points) < count:
        x = rng.uniform(lows, highs, size=(count, len(lows)))
        points = np.concatenate([points, x[~exclude.contains(x)]])
    return points[:count]

