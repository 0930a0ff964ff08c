"""Prints what verify returns, and every dsat query it makes, on 83 configs.

    PYTHONPATH=src python tests/data/search_fingerprint.py > fingerprint.txt

Run it on two versions of the checker and diff the outputs: a change that
keeps the search leaves them equal.  The configs are the bundled nn10
controller at config seeds 0-15 and nn100 at 0-7 (default CertifyConfig),
and nn10 at 0-50 and nn100 at 0-7 with n_seed_traces=2, whose CEGIS loops
have rounds that dsat refutes.  Each config prints one line: the
certificate's JSON without its wall times, or the Inconclusive stage,
detail and iterations.  Before it, each dsat query prints one line: its
verdict, its witness as float reprs and boxes_explored.  A DELTA_SAT
witness seeds the next CEGIS round, so equal lines need equal witnesses.
Only public entry points are called, so the script runs on any version of
the checker.  It takes a few minutes; it is not part of the test suite.
"""

import json
import sys

from barricade import certify, cli, dsat, plant
from barricade import network as nn

CONFIGS = ([(10, 20, s) for s in range(16)] + [(100, 20, s) for s in range(8)]
           + [(10, 2, s) for s in range(51)] + [(100, 2, s) for s in range(8)])


def _query_line(r):
    witness = None if r.witness is None else [
        (repr(iv.lo), repr(iv.hi)) for iv in r.witness]
    return "  dsat %s %s %d" % (r.verdict, witness, r.boxes_explored)


def _result_line(out):
    if isinstance(out, certify.Inconclusive):
        return "inconclusive %s %r %d" % (out.stage, out.detail,
                                          out.iterations)
    data = out.to_dict()
    for query in data["queries"].values():
        del query["wall_time"]
    return "certificate " + json.dumps(data, sort_keys=True)


def main():
    check = dsat.check

    def recorded(*args, **kwargs):
        r = check(*args, **kwargs)
        print(_query_line(r))
        return r

    fields = {}
    dsat.check = recorded
    try:
        for n_hidden, n_seed, seed in CONFIGS:
            if n_hidden not in fields:
                net = nn.load(cli.bundled_controller_path(n_hidden))
                fields[n_hidden] = plant.dubins_closed_loop(
                    plant.DubinsParams(), net)
            print("nn%d n_seed_traces=%d seed=%d" % (n_hidden, n_seed, seed))
            config = certify.CertifyConfig(seed=seed, n_seed_traces=n_seed)
            out = certify.verify(certify.default_spec(), fields[n_hidden],
                                 config)
            print("  " + _result_line(out))
            sys.stdout.flush()
    finally:
        dsat.check = check


if __name__ == "__main__":
    main()
