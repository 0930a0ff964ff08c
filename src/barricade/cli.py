"""Command-line surface: train / verify / plot / bench subcommands.

Exit codes: 1 error; verify 0 certified, 2 inconclusive; bench 2 if no row.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from importlib import resources

from . import certify, network as nn, simulate as sim, svgplot

PLOT_STEP = 0.01   # RK4 step of the plotted traces, finer than the pipeline's


def _load_system(args):
    """The certify.System of --system and --nn.  The file's controller path
    is relative to the file; --nn overrides it.  A malformed --system file,
    one that is not JSON included, raises ValueError naming it."""
    try:
        data = {}
        if args.system:
            with open(args.system) as fh:
                data = json.load(fh)
        path = args.nn or data.get("controller")
        if path is None:
            raise SystemExit("error: no controller given (--nn or system.json)")
        if not args.nn:
            path = os.path.join(os.path.dirname(os.path.abspath(args.system)),
                                path)
        return certify.System.from_dict(data, nn.load(path))
    except nn.NetworkFormatError:
        raise                           # it names the controller's file
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError("malformed system file %s: %s %s"
                         % (args.system, type(exc).__name__, exc)) from None


def bundled_controller_path(n_hidden):
    """Path to a pre-trained controller shipped with the package."""
    ref = resources.files("barricade").joinpath("data/nn%d.json" % n_hidden)
    if not ref.is_file():
        raise FileNotFoundError("no bundled controller for %d neurons"
                                % n_hidden)
    return str(ref)


def cmd_train(args):
    from . import train    # CMA-ES: loaded only by the train subcommand
    cmaes_cfg = train.CmaesConfig(population=args.popsize,
                                  iterations=args.iters, seed=args.seed)
    net, history = train.train_controller(args.neurons,
                                          cmaes_cfg=cmaes_cfg)
    nn.save(net, args.out)
    hist_path = os.path.splitext(args.out)[0] + "_history.csv"
    with open(hist_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "best_cost"])
        for i, c in enumerate(history, 1):
            w.writerow([i, repr(c)])
    print("wrote %s (%d parameters) and %s"
          % (args.out, nn.parameter_count(net), hist_path))
    return 0


def cmd_verify(args):
    system = _load_system(args)
    config = certify.CertifyConfig(gamma=args.gamma, delta=args.delta,
                                   seed=args.seed,
                                   max_iterations=args.max_iters)
    result = certify.verify(system.spec, system.field, config,
                            nn.controller_hash(system.controller))
    if isinstance(result, certify.Certificate):
        result.save(args.out)
        print("certified: level=%g iterations=%d (refuted by sampling %d, "
              "by dsat %d) -> %s"
              % (result.level, result.iterations, result.refuted["sampling"],
                 result.refuted["dsat"], args.out))
        return 0
    print("inconclusive at stage %r: %s" % (result.stage, result.detail))
    return 2


def cmd_plot(args):
    system = _load_system(args)
    spec = system.spec
    traces = sim.seed_traces(system.field, spec.safe_rect, args.count,
                             certify.SIM_DURATION, PLOT_STEP, args.seed,
                             exclude=spec.x0)
    candidate = level = None
    if args.certificate:
        cert = certify.load_certificate(args.certificate)
        if cert.candidate.arity != spec.arity:
            raise SystemExit("error: certificate arity does not match system")
        candidate, level = cert.candidate, cert.level
    svg = svgplot.render(spec, traces, candidate, level)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print("wrote %s" % args.out)
    return 0


def cmd_bench(args):
    sizes = [int(s) for s in args.neurons.split(",")]
    rows = []
    failures = 0
    for size in sizes:
        try:
            ctrl = args.controller_dir and os.path.join(
                args.controller_dir, "nn%d.json" % size)
            if not ctrl or not os.path.exists(ctrl):
                ctrl = bundled_controller_path(size)
            net = nn.load(ctrl)
        except FileNotFoundError as exc:
            print("bench: %s" % exc, file=sys.stderr)
            failures += 1
            continue
        system = certify.System(net)
        iters, q_times, totals = [], [], []
        for trial in range(args.trials):
            config = certify.CertifyConfig(seed=args.seed + trial)
            t0 = time.perf_counter()
            result = certify.verify(system.spec, system.field, config,
                                    nn.controller_hash(net))
            total = time.perf_counter() - t0
            if not isinstance(result, certify.Certificate):
                print("bench: inconclusive for %d neurons (%s)"
                      % (size, result.stage), file=sys.stderr)
                failures += 1
                continue
            iters.append(result.iterations)
            q_times.append(sum(t.wall_time
                               for t in result.transcripts.values()))
            totals.append(total)
        if iters:
            rows.append([size] + [sum(v) / len(v)
                                  for v in (iters, q_times, totals)])
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["neurons", "avg_iterations", "avg_query_time_s",
                    "avg_total_time_s"])
        for row in rows:
            w.writerow([row[0]] + ["%.6g" % v for v in row[1:]])
    print("wrote %s (%d rows, %d failed trials)"
          % (args.out, len(rows), failures))
    return 0 if rows else 2


def build_parser():
    ap = argparse.ArgumentParser(
        prog="barricade",
        description="Barrier-certificate synthesis and checking for "
                    "neural-network-controlled path following.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="CMA-ES policy search for a controller")
    p.add_argument("--neurons", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--popsize", type=int, default=152)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="synthesize and check a certificate")
    p.add_argument("--system", help="system config JSON")
    p.add_argument("--nn", help="controller JSON (overrides system config)")
    p.add_argument("--out", default="certificate.json")
    p.add_argument("--gamma", type=float, default=certify.GAMMA_DEFAULT)
    p.add_argument("--delta", type=float, default=certify.DELTA_DEFAULT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=20, dest="max_iters")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="emit a phase-portrait SVG")
    p.add_argument("--system")
    p.add_argument("--nn")
    p.add_argument("--certificate")
    p.add_argument("--count", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="plot.svg")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("bench", help="verification timing sweep")
    p.add_argument("--neurons", default="10,50,100",
                   help="comma-separated hidden-layer sizes")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--controller-dir", dest="controller_dir",
                   help="directory with nn<N>.json files")
    p.add_argument("--out", default="bench.csv")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ValueError, sim.SimulationDivergence) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
