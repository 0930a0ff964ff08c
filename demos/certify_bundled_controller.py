"""Certify the bundled 10-neuron path-following controller.

Walks the full pipeline by hand: load the controller, compose the closed
loop, run the CEGIS search for a generator function, pick a level set and
render the phase portrait.  The same thing is available as one command:

    barricade verify --nn src/barricade/data/nn10.json
"""

import numpy as np

from barricade import certify, cli, network as nn, simulate as sim
from barricade import svgplot

net = nn.load(cli.bundled_controller_path(10))
print("controller: %d parameters, hash %s"
      % (nn.parameter_count(net), nn.controller_hash(net)[:12]))

# the case study's loop: default speed, path angle, gain and safety spec
system = certify.System(net)
field, spec = system.field, system.spec

result = certify.verify(spec, field,
                        controller_hash=nn.controller_hash(net))
assert isinstance(result, certify.Certificate), result

print("certified in %d CEGIS iterations" % result.iterations)
print("generator P =\n%s" % np.round(result.candidate.p_matrix, 4))
print("level l = %.6f" % result.level)
for name, t in result.transcripts.items():
    print("  query %-18s %s  (%d boxes, %.2fs)"
          % (name, t.verdict, t.boxes_explored, t.wall_time))

# independent numeric spot check of the three barrier conditions
violations = certify.certificate_grid_oracle(result, field)
print("sampling oracle violations:", violations)
assert not any(violations.values()), violations

# phase portrait with a few trajectories and the certified level set
batch = sim.seed_traces(field, spec.safe_rect, 12, certify.SIM_DURATION,
                        certify.SIM_STEP, 0, exclude=spec.x0)
with open("phase_portrait.svg", "w") as fh:
    fh.write(svgplot.render(spec, batch, result.candidate, result.level))
print("wrote phase_portrait.svg")
