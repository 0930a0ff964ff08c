"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs up to about two times slower for
minutes at a time, and the process cannot see it: CPU time slows with
wall time.  The speed also swings within a second, so a kernel run
before or after a timed call misjudges it.  ``Sampler`` therefore runs
short bursts of the kernel from a timer signal during the timed code; the
benchmark takes the bursts' time out of the measured time and scales what
is left by ``REFERENCE_S / kernel seconds``, so that it reports seconds of
a host on which the kernel takes ``REFERENCE_S``.

The kernel imitates the work that dominates a ``verify`` call: a
recursive forward interval evaluation, in pure Python, of a fixed
expression tree.  It uses nothing from barricade, so a change to
barricade leaves it unchanged.

    python3 perfbench/hostspeed.py      # prints one sample, in seconds
"""

import gc
import math
import random
import signal
import time

# The fixed scale, about the kernel's seconds in a quiet period of the
# host the figures in README.md come from (2 vCPUs, Python 3.11.7): nn10
# then took 0.76 s per call, and a call takes about 115 kernel runs.
REFERENCE_S = 0.007

EVALS = 100          # tree evaluations in one kernel run
BURST_EVALS = 25     # tree evaluations in one burst of the sampler
INTERVAL_S = 0.04    # wall seconds between bursts


def _build(rng, depth):
    if depth == 0 or rng.random() < 0.1:
        if rng.random() < 0.3:
            return ("const", rng.uniform(-2.0, 2.0))
        return ("var", rng.randrange(3))
    op = rng.choice(("add", "sub", "mul", "mul", "tanh"))
    if op == "tanh":
        return (op, _build(rng, depth - 1))
    return (op, _build(rng, depth - 1), _build(rng, depth - 1))


_TREE = _build(random.Random(0), 10)
_BOX = ((-1.0, 1.0), (0.5, 2.0), (-2.0, -0.5))


def _eval(e, box):
    op = e[0]
    if op == "const":
        return (e[1], e[1])
    if op == "var":
        return box[e[1]]
    a = _eval(e[1], box)
    if op == "tanh":
        return (math.tanh(a[0]), math.tanh(a[1]))
    b = _eval(e[2], box)
    if op == "add":
        return (a[0] + b[0], a[1] + b[1])
    if op == "sub":
        return (a[0] - b[1], a[1] - b[0])
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p), max(p))


def sample(seconds=0.1):
    """Mean seconds of one kernel run, over as many runs as fill about
    ``seconds``; at least one."""
    t0 = time.perf_counter()
    runs = 0
    while True:
        for _ in range(EVALS):
            _eval(_TREE, _BOX)
        runs += 1
        took = time.perf_counter() - t0
        if took >= seconds:
            return took / runs


class Sampler:
    """Runs a burst of the kernel every INTERVAL_S seconds of wall time
    while installed (``with sampler:``), from a SIGALRM handler, so that it
    samples the host's speed during the code it interrupts.  ``seconds``
    totals the time spent in bursts; ``kernel_s()`` is the mean seconds of
    one kernel run over them.  A burst that falls in a long C call runs
    when the call returns.  The garbage collector is off during a burst:
    a collection then would be the interrupted code's work, taken out of
    its time and charged to the host."""

    def __init__(self):
        self.seconds = 0.0
        self.evaluated = 0
        self._saved = None

    def _burst(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        for _ in range(BURST_EVALS):
            _eval(_TREE, _BOX)
        self.seconds += time.perf_counter() - t0
        self.evaluated += BURST_EVALS
        if enabled:
            gc.enable()

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        if not self.evaluated:  # code shorter than one interval
            self._burst(None, None)

    def kernel_s(self):
        return self.seconds * EVALS / self.evaluated


if __name__ == "__main__":
    print(sample())
