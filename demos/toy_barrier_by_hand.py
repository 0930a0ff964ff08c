"""Barrier conditions on a toy contraction field, step by step.

The field xdot = -x pulls every state to the origin, so v(x) = |x|^2
decreases everywhere away from it.  This script builds that certificate
manually, showing each query the full pipeline automates.
"""

from barricade import certify, lpgen, simulate as sim, symexpr as sx
from barricade.plant import VectorField

field = VectorField(2, (sx.neg(sx.var(0)), sx.neg(sx.var(1))))
spec = certify.SafetySpec(sx.box((-0.1, 0.1), (-0.1, 0.1)),
                          sx.box((-1.0, 1.0), (-1.0, 1.0)))

# v(x) = x0^2 + x1^2 as a quadratic template instance
tmpl = lpgen.QuadraticTemplate(2)
cand = lpgen.candidate_from([1.0, 0.0, 1.0, 0.0, 0.0, 0.0], tmpl)
print("v =", sx.to_sexpr(cand.expr))

# query 1: the Lie derivative grad v . f = -2|x|^2 is negative on the ring
t1 = certify.query_decrease(cand, field, spec)
print("decrease query:", t1.verdict, "(%d boxes)" % t1.boxes_explored)

# analytic level range: max over X0 vertices up to the least v beyond the
# safe square's four faces, x_i >= 1 and -x_i >= 1
vmax = certify.vertex_max(cand, spec.x0)
hmin = certify.halfspace_min(cand, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                                    [0.0, -1.0]], [1.0] * 4)
print("feasible level range: (%.4f, %.4f)" % (vmax, hmin))

level, transcripts = certify.select_level(cand, spec)
print("selected level: %.6f" % level)
for name, t in transcripts.items():
    print("  query %-18s %s" % (name, t.verdict))

# the induced barrier separates a sample trajectory from the unsafe set
batch = sim.simulate(field, [[0.09, -0.05]], 8.0, 0.01)
values = [cand.value(x) - level for x in batch.states[:, :, 0]]
print("barrier along a trajectory from X0: starts %.4f, ends %.4f "
      "(never positive: %s)" % (values[0], values[-1],
                                all(v <= 0 for v in values)))
