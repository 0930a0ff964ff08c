"""Controller training: derivative-free policy search with CMA-ES over the
weights of a one-hidden-layer tanh network, scored by a discrete-time
path-following rollout in the full (x, y, theta) pose space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import network as nn

COST_D = 100.0
COST_THETA = 1.0e5
COST_U = 100.0
COST_END = 1.0e3

DEFAULT_WAYPOINTS = ((0.0, 0.0), (2.0, 2.0), (4.0, 2.5), (6.0, 4.0))

# Rollouts start slightly off the path.  Several fixed offsets (lateral
# displacement, heading error) are summed so the learned policy corrects
# from anywhere in the region the verifier will later sweep, not just
# from on-path states.
DEFAULT_START_OFFSETS = ((0.0, 0.0), (0.5, 0.0), (-0.5, 0.0),
                         (0.0, 0.7), (0.0, -0.7), (0.8, -0.3), (-0.8, 0.3))


@dataclass(frozen=True)
class RolloutConfig:
    waypoints: tuple = DEFAULT_WAYPOINTS
    n_steps: int = 400
    dt: float = 0.05
    speed: float = 1.0
    start_offsets: tuple = DEFAULT_START_OFFSETS

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("need at least two waypoints")
        if self.n_steps < 1 or not self.dt > 0:
            raise ValueError("bad rollout discretization")


@dataclass(frozen=True)
class CmaesConfig:
    population: int = 152
    iterations: int = 50
    sigma0: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.population < 4:
            raise ValueError("population must be >= 4")


def params_to_network(params, n_hidden):
    """Flat layout: W2 (n_hidden x 2, row major), b2, W3 (1 x n_hidden), b3."""
    params = np.asarray(params, dtype=float)
    if params.size != 4 * n_hidden + 1:
        raise ValueError("expected %d parameters, got %d"
                         % (4 * n_hidden + 1, params.size))
    pos = 0
    w2 = params[pos:pos + 2 * n_hidden].reshape(n_hidden, 2)
    pos += 2 * n_hidden
    b2 = params[pos:pos + n_hidden]
    pos += n_hidden
    w3 = params[pos:pos + n_hidden].reshape(1, n_hidden)
    pos += n_hidden
    b3 = params[pos:pos + 1]
    return nn.Network((nn.make_layer(w2, b2, "tanh"),
                       nn.make_layer(w3, b3, "tanh")))


def _path_segments(waypoints):
    pts = np.asarray(waypoints, dtype=float)
    starts = pts[:-1]
    deltas = pts[1:] - starts
    lengths = np.linalg.norm(deltas, axis=1)
    dirs = deltas / lengths[:, None]
    # Direction angle measured clockwise from +y, matching the vehicle
    # heading convention.
    angles = np.arctan2(dirs[:, 0], dirs[:, 1])
    return starts, deltas, lengths, dirs, angles


def _path_errors_batch(xs, ys, thetas, segments):
    """(d_err, theta_e) of each pose against the nearest polyline segment.

    Per-segment projection with clamping; ties go to the lower segment
    index.  d_err is positive on the left of the path.
    """
    starts, deltas, lengths, dirs, angles = segments
    pts = np.stack([xs, ys], axis=1)                    # (m, 2)
    rel = pts[:, None, :] - starts[None, :, :]          # (m, S, 2)
    t = np.clip((rel * dirs[None, :, :]).sum(axis=2), 0.0, lengths)
    closest = starts[None, :, :] + t[:, :, None] * dirs[None, :, :]
    d2 = ((pts[:, None, :] - closest) ** 2).sum(axis=2)
    k = d2.argmin(axis=1)
    seg_angle = angles[k]
    rx = xs - starts[k, 0]
    ry = ys - starts[k, 1]
    d_err = -rx * np.cos(seg_angle) + ry * np.sin(seg_angle)
    theta_e = (seg_angle - thetas + math.pi) % (2.0 * math.pi) - math.pi
    return d_err, theta_e


def rollout_cost(params, n_hidden, cfg):
    """Path-following cost J of a forward-Euler rollout.

    J = sum_k (100 d_k^2 + 1e5 theta_k^2 + 100 u_k^2)
        + 1e3 |path_end - pose_end|^2,
    summed over every configured start offset.  All offsets advance in
    lockstep so the inner loop is a handful of batched numpy ops.
    """
    net = params_to_network(params, n_hidden)
    (w2, b2, _), (w3, b3, _) = nn.numpy_arrays(net)
    segments = _path_segments(cfg.waypoints)
    starts, deltas, lengths, dirs, angles = segments
    end = np.asarray(cfg.waypoints[-1], dtype=float)
    v = cfg.speed
    offs = np.asarray(cfg.start_offsets, dtype=float)
    theta0 = angles[0]
    # Lateral offset: positive d_err means left of the path.
    xs = cfg.waypoints[0][0] - offs[:, 0] * math.cos(theta0)
    ys = cfg.waypoints[0][1] + offs[:, 0] * math.sin(theta0)
    thetas = theta0 - offs[:, 1]
    total = 0.0
    for k in range(cfg.n_steps + 1):
        d_err, theta_e = _path_errors_batch(xs, ys, thetas, segments)
        hidden = np.tanh(np.stack([d_err, theta_e], axis=1) @ w2.T + b2)
        u = np.tanh(hidden @ w3.T + b3)[:, 0]
        total += float((COST_D * d_err ** 2 + COST_THETA * theta_e ** 2
                        + COST_U * u ** 2).sum())
        if k < cfg.n_steps:
            xs = xs + cfg.dt * v * np.sin(thetas)
            ys = ys + cfg.dt * v * np.cos(thetas)
            thetas = thetas + cfg.dt * u
    total += COST_END * float(((end[0] - xs) ** 2 + (end[1] - ys) ** 2).sum())
    return total


# ---------------------------------------------------------------------------
# CMA-ES: (mu/mu_w, lambda) with cumulative step-size adaptation and
# rank-one + rank-mu covariance updates (standard tutorial constants).
# ---------------------------------------------------------------------------

def cmaes_minimize(objective, dim, cfg):
    """Minimize objective over R^dim.  Returns (best_x, history) where
    history is the best-so-far objective value per iteration
    (non-increasing).  NaN objective values count as +inf."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    lam = cfg.population
    mu = lam // 2
    weights = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights /= weights.sum()
    mu_eff = 1.0 / np.sum(weights ** 2)

    cc = (4.0 + mu_eff / dim) / (dim + 4.0 + 2.0 * mu_eff / dim)
    cs = (mu_eff + 2.0) / (dim + mu_eff + 5.0)
    c1 = 2.0 / ((dim + 1.3) ** 2 + mu_eff)
    cmu = min(1.0 - c1,
              2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((dim + 2.0) ** 2 + mu_eff))
    damps = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (dim + 1.0)) - 1.0) + cs
    chi_n = math.sqrt(dim) * (1.0 - 1.0 / (4.0 * dim) + 1.0 / (21.0 * dim ** 2))

    mean = np.zeros(dim)
    sigma = cfg.sigma0
    cov = np.eye(dim)
    p_sigma = np.zeros(dim)
    p_c = np.zeros(dim)

    best_x = mean.copy()
    best_f = math.inf
    history = []
    for gen in range(cfg.iterations):
        d2, b_mat = np.linalg.eigh(cov)
        d2 = np.maximum(d2, 1e-20)
        d = np.sqrt(d2)
        inv_sqrt = (b_mat * (1.0 / d)) @ b_mat.T

        z = rng.standard_normal((lam, dim))
        ys = z * d @ b_mat.T          # y ~ N(0, C)
        xs = mean + sigma * ys
        fs = np.empty(lam)
        for i in range(lam):
            f = objective(xs[i])
            fs[i] = math.inf if (f != f) else f
        order = np.argsort(fs, kind="stable")
        if fs[order[0]] < best_f:
            best_f = float(fs[order[0]])
            best_x = xs[order[0]].copy()
        history.append(best_f)

        y_sel = ys[order[:mu]]
        y_w = weights @ y_sel
        mean = mean + sigma * y_w

        p_sigma = ((1.0 - cs) * p_sigma
                   + math.sqrt(cs * (2.0 - cs) * mu_eff) * (inv_sqrt @ y_w))
        h_sigma = (np.linalg.norm(p_sigma)
                   / math.sqrt(1.0 - (1.0 - cs) ** (2 * (gen + 1)))
                   < (1.4 + 2.0 / (dim + 1.0)) * chi_n)
        p_c = ((1.0 - cc) * p_c
               + (math.sqrt(cc * (2.0 - cc) * mu_eff) * y_w if h_sigma else 0.0))

        rank_mu = (y_sel * weights[:, None]).T @ y_sel
        cov = ((1.0 - c1 - cmu) * cov
               + c1 * np.outer(p_c, p_c)
               + (0.0 if h_sigma else c1 * cc * (2.0 - cc)) * cov
               + cmu * rank_mu)
        cov = 0.5 * (cov + cov.T)
        sigma *= math.exp((cs / damps)
                          * (np.linalg.norm(p_sigma) / chi_n - 1.0))
    return best_x, history


def trim_output_bias(net):
    """Zero the control output at the origin by adjusting the output bias.

    Policy search leaves a small residual u(0, 0) != 0, which parks the
    closed-loop equilibrium at a lateral offset.  When that offset falls
    outside the initial set no barrier certificate can exist, so the
    trained controller is trimmed the way a physical autopilot would be.
    """
    (w2, b2, _), (w3, b3, _) = nn.numpy_arrays(net)
    b3_new = -w3 @ np.tanh(b2)
    return nn.Network((net.layers[0],
                       nn.make_layer(w3, b3_new, net.layers[1].activation)))


def widen_controller(net, n_hidden, seed=0, scale=0.05, out_scale=1e-3):
    """Grow a trained controller to n_hidden units (Net2Net-style widening).

    The original hidden units are kept verbatim; the new units get small
    random input weights and biases and near-zero output weights, so the
    widened policy starts as a slight perturbation of the original one.
    The result is origin-trimmed like any trained controller."""
    (w2, b2, _), (w3, b3, _) = nn.numpy_arrays(net)
    extra = n_hidden - w2.shape[0]
    if extra < 0:
        raise ValueError("n_hidden smaller than the existing hidden layer")
    rng = np.random.default_rng(seed)
    w2p = np.vstack([w2, scale * rng.standard_normal((extra, 2))])
    b2p = np.concatenate([b2, scale * rng.standard_normal(extra)])
    w3p = np.concatenate([w3[0], out_scale * rng.standard_normal(extra)])
    wide = nn.Network((nn.make_layer(w2p, b2p, net.layers[0].activation),
                       nn.make_layer(w3p[None, :], b3,
                                     net.layers[1].activation)))
    return trim_output_bias(wide)


def train_controller(n_hidden, rollout_cfg=None, cmaes_cfg=None):
    """Policy search for the case-study controller shape (2 inputs, one
    tanh hidden layer of n_hidden, tanh output; 4*n_hidden + 1 weights),
    from the zero parameters.  The returned network is origin-trimmed
    (see trim_output_bias)."""
    rollout_cfg = rollout_cfg or RolloutConfig()
    cmaes_cfg = cmaes_cfg or CmaesConfig()
    dim = 4 * n_hidden + 1

    def objective(params):
        return rollout_cost(params, n_hidden, rollout_cfg)

    best, history = cmaes_minimize(objective, dim, cmaes_cfg)
    return trim_output_bias(params_to_network(best, n_hidden)), history
