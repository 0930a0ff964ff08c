"""Train a small controller with CMA-ES and watch the cost fall.

Uses a reduced budget so it finishes in under a minute; the bundled
controllers were trained with the full population of 152.
"""

import numpy as np

from barricade import certify, network as nn, simulate as sim, train

cmaes = train.CmaesConfig(population=40, iterations=30, sigma0=0.5, seed=0)
rollout = train.RolloutConfig(n_steps=300)

net, history = train.train_controller(6, rollout_cfg=rollout, cmaes_cfg=cmaes)

print("parameters: %d (= 4*6 + 1)" % nn.parameter_count(net))
print("cost history (best-so-far, every 5 iterations):")
for k in range(0, len(history), 5):
    print("  iter %2d  J = %.1f" % (k + 1, history[k]))

# even this small budget learns strong heading feedback; lateral feedback
# needs the full training budget because the cost weights heading 1000x more
field = certify.System(net).field
batch = sim.simulate(field, [[0.0, 0.5]], 15.0, 0.01)
theta = np.abs(batch.states[:, 1, 0])
print("heading error from theta_e=0.5: start %.3f, after 15s %.5f"
      % (theta[0], theta[-1]))
