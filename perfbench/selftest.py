"""Self-test of the traced benchmark run.

    python3 perfbench/selftest.py [--workload verify-nn10] [--seed 0]

Runs ``run.py --trace 1`` twice on the same seed and checks that both runs
are correct, that the deterministic counters repeat exactly, and that the
stage split (simulate + lpgen + dsat + certify self time) adds up to the
traced verify time within 5%.  Exits 1 on the first failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"

# Counts that depend only on the inputs: dsat.unsat_boxes is the
# machine-independent counter; the others follow the same search.
DETERMINISTIC = ("dsat.unsat_boxes", "dsat.sat_boxes", "certify.iterations",
                 "lpgen.rows", "simulate.steps",
                 "dsat.forward_passes_per_box")
SPLIT_TOLERANCE = 0.05


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="verify-nn10")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    runs = [traced_run(args.workload, args.seed) for _ in range(2)]
    errors = []
    for i, r in enumerate(runs, 1):
        if not r["correct"] or r["failed"]:
            errors.append("run %d: correct=%s failed=%d of %d"
                          % (i, r["correct"], r["failed"], r["attempted"]))
        split = r["metrics"]["trace.split_error"]["value"]
        if split > SPLIT_TOLERANCE:
            errors.append("run %d: stage split off by %.1f%%"
                          % (i, 100 * split))
    for name in DETERMINISTIC:
        a, b = (r["metrics"][name]["value"] for r in runs)
        print("%-30s %r %r" % (name, a, b))
        if a != b:
            errors.append("%s differs between runs: %r != %r" % (name, a, b))
    for e in errors:
        print("FAIL:", e, file=sys.stderr)
    if errors:
        return 1
    print("ok: %s seed %d" % (args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
