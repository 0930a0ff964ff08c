"""Time-to-certificate benchmark for barricade.

    python3 perfbench/run.py --workload verify-nn100 --seed 0 --seconds 36 --trace 0

Run it from the root of a checkout; it imports barricade from ``src/``.
It calls ``certify.verify`` in this one process, times every call and
checks every certificate with ``certify.certificate_grid_oracle``.  Times
are scaled to a reference host speed with the kernel in ``hostspeed.py``,
run between the timed calls.  The last line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
perfbench/README.md describes the workloads and the metrics.
"""

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# One verify call costs 1 to 11 CEGIS iterations depending on its
# CertifyConfig.seed (5 s to 87 s on nn100), which dwarfs every other
# source of spread.  So each run covers the same pool of config seeds, in
# whole rounds, and --seed draws the order of every round.  Every pool
# seed certifies.  verify-nn10 and verify-nn100 share a pool of seeds that
# certify in one iteration, so they run the same UNSAT decrease search on
# trees of different size, and a round of nn100 is short enough for the
# median over rounds to drop a slow one.  cegis-nn10 takes CEGIS-heavy
# seeds (11, 9 and 6 iterations).
WORKLOADS = {
    "verify-nn100": {"controller": "nn100", "config": {}, "pool": (1, 2)},
    "verify-nn10": {"controller": "nn10", "config": {}, "pool": (1, 2)},
    "cegis-nn10": {"controller": "nn10", "config": {"n_seed_traces": 2},
                   "pool": (0, 2, 3)},
}

SETUP_REPEATS = 7

# A traced call runs without the sampler, whose bursts would land in the
# spans; the host-speed kernel runs after it, for this share of its time.
KERNEL_SHARE = 0.1

# Runs in a fresh interpreter, so that the import is timed as a CLI
# user pays it, with the host-speed sampler installed.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[3])
import hostspeed
with hostspeed.Sampler() as sampler:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from barricade import certify, network, plant
    net = network.load(sys.argv[2])
    plant.dubins_closed_loop(plant.DubinsParams(), net)
    certify.default_spec()
    network.controller_hash(net)
    setup_s = time.perf_counter() - t0 - sampler.seconds
print(repr(setup_s), repr(sampler.kernel_s()))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def scaled(seconds, kernel_s):
    """Seconds on a host where the host-speed kernel takes REFERENCE_S."""
    return seconds * hostspeed.REFERENCE_S / kernel_s


def time_setup(controller):
    """Set-up seconds, measured inside a fresh interpreter and scaled."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(controller),
         str(HERE)],
        capture_output=True, text=True, timeout=120, check=True)
    setup_s, kernel_s = map(float, out.stdout.split()[-2:])
    return scaled(setup_s, kernel_s)


def median_time(fn, repeats=SETUP_REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calls:
    """Runs verify calls and tallies their outcomes."""

    def __init__(self, certify, spec, field, chash, config):
        self.certify = certify
        self.spec = spec
        self.field = field
        self.chash = chash
        self.config = config
        self.attempted = 0
        self.certified = 0
        self.correct = True
        self.fingerprints = {}

    def _verify(self, config, tracer):
        try:
            with tracer or contextlib.nullcontext():
                return self.certify.verify(self.spec, self.field, config,
                                           self.chash)
        except Exception:  # an escaped exception is one failed call
            traceback.print_exc()
            return None

    def run(self, config_seed, tracer=None):
        """One verify call, checked; returns its wall seconds and the
        host-speed kernel's seconds during it (after it, when traced)."""
        certify = self.certify
        config = certify.CertifyConfig(seed=config_seed, **self.config)
        self.attempted += 1
        sampler = hostspeed.Sampler()
        with sampler if tracer is None else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = self._verify(config, tracer)
            seconds = time.perf_counter() - t0 - sampler.seconds
        if tracer is None:
            kernel_s = sampler.kernel_s()
        else:
            kernel_s = hostspeed.sample(KERNEL_SHARE * seconds)
        self._check(config_seed, result)
        return seconds, kernel_s

    def _check(self, config_seed, result):
        certify = self.certify
        if not isinstance(result, certify.Certificate):
            if result is not None:
                print("seed %d: inconclusive at %s: %s"
                      % (config_seed, result.stage, result.detail),
                      file=sys.stderr)
            return
        try:
            violations = certify.certificate_grid_oracle(result, self.field)
        except Exception:  # a certificate the oracle cannot read fails
            traceback.print_exc()
            return
        if any(violations.values()):
            print("seed %d: oracle violations %s" % (config_seed, violations),
                  file=sys.stderr)
            self.correct = False
            return
        self.certified += 1
        # The same config seed must give the same certificate every time.
        fingerprint = (result.iterations, result.level,
                       tuple(result.candidate.p_matrix.ravel()),
                       tuple(result.candidate.q_vector),
                       tuple((name, t.verdict, t.boxes_explored)
                             for name, t in sorted(result.transcripts.items())))
        if self.fingerprints.setdefault(config_seed, fingerprint) != fingerprint:
            print("seed %d: certificate differs between calls" % config_seed,
                  file=sys.stderr)
            self.correct = False


def main(argv=None):
    args = parse_args(argv)
    # One BLAS thread, pinned before numpy is first imported; the set-up
    # children inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "barricade" / "__init__.py").is_file():
        print("run.py: no barricade package under %s" % SRC, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    controller = SRC / "barricade" / "data" / (workload["controller"]
                                               + ".json")
    setup_s = statistics.median(time_setup(controller)
                                for _ in range(SETUP_REPEATS))

    sys.path.insert(0, str(SRC))
    import numpy
    from barricade import (certify, dsat, lpgen, network, plant, simulate,
                           symexpr)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "controller": workload["controller"], "config": workload["config"],
        "pool": workload["pool"], "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}))

    net = network.load(controller)
    field = plant.dubins_closed_loop(plant.DubinsParams(), net)
    spec = certify.default_spec()
    calls = Calls(certify, spec, field, network.controller_hash(net),
                  workload["config"])
    tracer = None
    if args.trace:
        tracer = spans.Tracer({"certify": certify, "dsat": dsat,
                               "lpgen": lpgen, "simulate": simulate,
                               "symexpr": symexpr})
        load_s = median_time(lambda: network.load(controller))
        closed_loop_s = median_time(
            lambda: plant.dubins_closed_loop(plant.DubinsParams(), net))

    # Whole rounds, one call per pool seed, until the next round would
    # overrun --seconds.  A round's mean seconds per call is scaled by the
    # kernel's mean over the round, weighted by call time as the calls
    # weigh the host's speed of each moment; the median over rounds drops
    # a round that the kernel misjudged.
    # A traced run alternates untraced and traced rounds, so the tracing
    # overhead is measured under the same conditions.  The first call of
    # the process is timed like the others: a CLI user pays it every run.
    rng = random.Random(args.seed)
    per_call = {False: [], True: []}   # traced? -> scaled round means
    rounds_log = []                    # [wall round mean, kernel seconds]
    traced_total = 0.0
    start = time.perf_counter()
    while True:
        order = list(workload["pool"])
        rng.shuffle(order)
        traced = tracer is not None and len(per_call[False]) > len(
            per_call[True])
        t0 = time.perf_counter()
        call_s, kernel_s = zip(*(calls.run(s, tracer if traced else None)
                                 for s in order))
        took = time.perf_counter() - t0
        rounds_log.append([statistics.fmean(call_s),
                           sum(c * k for c, k in zip(call_s, kernel_s))
                           / sum(call_s)])
        per_call[traced].append(scaled(*rounds_log[-1]))
        if traced:
            traced_total += sum(call_s)
        rounds = len(per_call[False]) + len(per_call[True])
        if (rounds >= (2 if tracer else 1)
                and time.perf_counter() - start + took > args.seconds):
            break
    print(json.dumps({"rounds": rounds, "seconds_per_call": per_call,
                      "wall_s_and_kernel_s": rounds_log}))

    untraced = statistics.median(per_call[False])
    if tracer is None:
        metrics = {
            "verify_s": (untraced, "s"),
            "setup_s": (setup_s, "s"),
            "certified_ratio": (calls.certified / calls.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        traced_s = statistics.median(per_call[True])
        metrics = tracer.metrics()
        metrics.update({
            "network.load_s": (load_s, "s"),
            "plant.closed_loop_s": (closed_loop_s, "s"),
            "trace.verify_s": (traced_s, "s"),
            "host.kernel_s": (statistics.median(k for _, k in rounds_log),
                              "s"),
            "trace.overhead_ratio": (traced_s / untraced, "ratio"),
            "trace.split_error": (abs(tracer.stage_sum() - traced_total)
                                  / traced_total, "ratio"),
        })
    print(json.dumps({
        "correct": calls.correct,
        "attempted": calls.attempted,
        "failed": calls.attempted - calls.certified,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
