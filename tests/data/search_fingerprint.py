"""Prints what verify returns, and every dsat query it makes, on 83 configs.

    PYTHONPATH=src python tests/data/search_fingerprint.py > fingerprint.txt
    PYTHONPATH=src python tests/data/search_fingerprint.py --limit 3 > a.txt
    PYTHONPATH=src python tests/data/search_fingerprint.py --compare a.txt b.txt

Run it on two versions of the checker and compare the outputs: a change
that keeps the search leaves them equal.  --limit N runs the first N
configs only.  --compare reports, per config, the structural differences
(a verdict, boxes_explored, the iterations, the refuted counts, an
Inconclusive stage or the number of queries) apart from the digit-only
ones (float reprs in witnesses and certificates, which may fold a term of
a certificate's text where a coefficient lands on 1.0), with the largest
relative change of the certificate's P, and exits 1 when there is a
structural difference.  The configs are the bundled nn10
controller at config seeds 0-15 and nn100 at 0-7 (default CertifyConfig),
and nn10 at 0-50 and nn100 at 0-7 with n_seed_traces=2, whose CEGIS loops
have rounds that dsat refutes.  Each config prints one line: the
certificate's JSON without its wall times, or the Inconclusive stage,
detail and iterations.  Before it, each dsat query prints one line: its
verdict, its witness as float reprs and boxes_explored.  A DELTA_SAT
witness seeds the next CEGIS round, so equal lines need equal witnesses.
Only public entry points are called, so the script runs on any version of
the checker.  A full run takes about 20 s on 2 vCPUs; it is not part of
the test suite.  tests/data/search_fingerprint.txt is the full output
of the commit that added it, which CI compares a fresh run against.
"""

import argparse
import json
import re
import sys

from barricade import certify, cli, dsat, plant
from barricade import network as nn

CONFIGS = ([(10, 20, s) for s in range(16)] + [(100, 20, s) for s in range(8)]
           + [(10, 2, s) for s in range(51)] + [(100, 2, s) for s in range(8)])


def _query_line(r):
    witness = None if r.witness is None else [
        (repr(lo), repr(hi)) for lo, hi in r.witness.bounds.tolist()]
    return "  dsat %s %s %d" % (r.verdict, witness, r.boxes_explored)


def _result_line(out):
    if isinstance(out, certify.Inconclusive):
        return "inconclusive %s %r %d" % (out.stage, out.detail,
                                          out.iterations)
    data = out.to_dict()
    for query in data["queries"].values():
        del query["wall_time"]
    return "certificate " + json.dumps(data, sort_keys=True)


def run(limit=None):
    check = dsat.check

    def recorded(*args, **kwargs):
        r = check(*args, **kwargs)
        print(_query_line(r))
        return r

    fields = {}
    dsat.check = recorded
    try:
        for n_hidden, n_seed, seed in CONFIGS[:limit]:
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


# -- comparing two outputs --------------------------------------------------

_FLOAT = re.compile(r"-?(?:inf|nan|\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)")


def _blocks(path):
    """{config line: its query and result lines} of an output file."""
    blocks, lines = {}, None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("  "):
                lines.append(line.strip())
            elif line:
                lines = blocks[line] = []
    return blocks


def _structure(line):
    """The fields of a line that a change keeping the search keeps."""
    if line.startswith("dsat "):
        verdict, rest = line[5:].split(" ", 1)
        witness, boxes = rest.rsplit(" ", 1)
        return ("dsat", verdict, witness == "None", int(boxes))
    if line.startswith("certificate "):
        data = json.loads(line[12:])
        return ("certificate", data["iterations"], data["refuted"],
                sorted((k, q["verdict"], q["boxes_explored"])
                       for k, q in data["queries"].items()))
    if line.startswith("inconclusive "):
        stage, rest = line[13:].split(" ", 1)
        return ("inconclusive", stage, int(rest.rsplit(" ", 1)[1]))
    return (line,)


def _p_change(a, b):
    """The largest relative change between the P of two certificate lines,
    or None when either line has none."""
    try:
        pa = json.loads(a[12:])["generator"]["p_matrix"]
        pb = json.loads(b[12:])["generator"]["p_matrix"]
    except (ValueError, KeyError):
        return None
    return max(abs(x - y) / max(abs(x), abs(y), 1e-300)
               for ra, rb in zip(pa, pb) for x, y in zip(ra, rb))


def _compare_block(a, b):
    """(structural differences, digit-only ones, largest change of P) of
    one config's lines in two outputs."""
    if len(a) != len(b):
        return ["%d lines -> %d lines" % (len(a), len(b))], [], None
    structural, digits, p_change = [], [], None
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        what = "line %d (%s)" % (i + 1, x.split(" ", 1)[0])
        if _structure(x) != _structure(y):
            structural.append("%s: %s -> %s" % (what, _structure(x)[1:],
                                                _structure(y)[1:]))
            continue
        if _FLOAT.sub("#", x) != _FLOAT.sub("#", y):
            # a coefficient that lands on 0 or 1 folds a term of the text
            what += " with folded terms"
        digits.append(what)
        if x.startswith("certificate "):
            p_change = _p_change(x, y)
    return structural, digits, p_change


def compare(path_a, path_b):
    """Prints the differences between two outputs; 1 if any is structural."""
    a, b = _blocks(path_a), _blocks(path_b)
    n_struct = n_digits = 0
    largest = 0.0
    for config in list(a) + [c for c in b if c not in a]:
        if config not in a or config not in b:
            print("STRUCTURAL %s: only in %s" % (
                config, path_a if config in a else path_b))
            n_struct += 1
            continue
        structural, digits, p_change = _compare_block(a[config], b[config])
        for d in structural:
            print("STRUCTURAL %s: %s" % (config, d))
        if digits and not structural:
            print("digits     %s: %s%s" % (
                config, ", ".join(digits),
                "" if p_change is None else "; P by %.2g" % p_change))
            largest = max(largest, p_change or 0.0)
        n_struct += bool(structural)
        n_digits += bool(digits) and not structural
    print("%d configs: %d differ structurally, %d in digits only (largest "
          "relative change of P %.2g)" % (len(set(a) | set(b)), n_struct,
                                           n_digits, largest))
    return 1 if n_struct else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--limit", type=int, default=None,
                        help="run the first N configs only")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two outputs instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    run(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
