"""Command-line front end: analyze graphs, emit coordinate files, run sweeps.

Exit codes: 0 success, 2 parse/usage failure (including an unwritable
output path), 3 internal consistency diagnostic (including a sweep that finds
violations), 4 infeasible request (bad beta, degenerate graph, non-spherical
endpoint). ``_FAILURES`` maps each exception a command raises to its code.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from typing import Optional

from . import __version__, edm, linalg, representations as reps
from .graphs import Graph, GraphFormatError, encode_graph6, parse_edge_list, parse_graph6

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIAGNOSTIC = 3
EXIT_INFEASIBLE = 4

#: What a command's exception means: its exit code and stderr prefix. ``main``
#: is the one place that catches these; commands just raise.
_FAILURES = {
    GraphFormatError: (EXIT_PARSE, "error"),
    edm.InternalConsistencyError: (EXIT_DIAGNOSTIC, "internal consistency diagnostic"),
    reps.InfeasibleBetaError: (EXIT_INFEASIBLE, "error"),
    reps.DegenerateGraphError: (EXIT_INFEASIBLE, "error"),
    reps.EndpointError: (EXIT_INFEASIBLE, "error"),
}


def _load_graph(args) -> Graph:
    if args.g6 is not None:
        return parse_graph6(args.g6)
    try:
        with open(args.edges, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {args.edges}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{args.edges}: not UTF-8 text ({exc.reason})")
    return parse_edge_list(text)


def _tolerance(text: str) -> float:
    """argparse type for a finite, positive tolerance."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _nonnegative(text: str) -> int:
    """argparse type for an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _finite(text: str) -> float:
    """argparse type for a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _report_document(g: Graph, args) -> dict:
    report = reps.analyze_graph(g, tol=args.tol_eig)
    doc = {"tool": "twodist", "version": __version__,
           "input_graph6": encode_graph6(g),
           "tolerances": {"tol_eig": args.tol_eig}}
    doc.update(report.to_dict())
    return doc


def _emit(doc: dict, pretty: bool) -> None:
    sys.stdout.write(json.dumps(doc, indent=2 if pretty else None) + "\n")


def cmd_analyze(args) -> int:
    _emit(_report_document(_load_graph(args), args), args.pretty)
    return EXIT_OK


def _write(texts: dict) -> int:
    """Write each text to its path (through a symlink; only a regular file is
    replaced) via a temporary name beside it. All move into place once every
    write succeeded and every path was found replaceable, the first path
    last, so a failure leaves every path as it was; a failure removes what
    the command wrote and names its path: exit 0 or 2."""
    real = {t: os.path.realpath(t) if os.path.islink(t) else t for t in texts}
    made = []  # temporaries, then the targets moved into place
    try:
        for target, dest in real.items():
            with open(f"{dest}.{os.getpid()}.tmp", "w", newline="", encoding="utf-8") as fh:
                made.append(fh.name)
                fh.write(texts[target])
        for target, dest in reversed(real.items()):
            if os.path.isfile(dest):
                continue
            if os.path.isdir(dest):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if os.path.exists(dest):
                raise OSError(0, "not a regular file")  # a device or pipe, as /dev/null
        for target, dest in reversed(real.items()):
            os.replace(f"{dest}.{os.getpid()}.tmp", dest)
            made.append(dest)
    except OSError as exc:
        for name in filter(os.path.lexists, made):
            os.remove(name)
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _write_coordinates(path: str, config: edm.Configuration, sidecar: dict) -> int:
    """The points as CSV rows of %.17g values ending in \\r\\n, as csv.writer
    writes them, and the sidecar as indented JSON, one write per file: exit 0 or 2."""
    row = ",".join(["%.17g"] * config.dim) + "\r\n"
    return _write({path: "".join([row % tuple(r) for r in config.points.tolist()]),
                   path + ".json": json.dumps(sidecar, indent=2) + "\n"})


def cmd_embed(args) -> int:
    from . import oracle  # loaded here only: analyze never verifies
    g = _load_graph(args)
    if args.mode == "euclidean":
        if args.beta is None:
            print("error: --beta required for euclidean mode", file=sys.stderr)
            return EXIT_PARSE
        # verification cannot tell two distances within its tolerance
        # (up to rounding, so that 1.0000001 counts) apart
        if args.beta <= 0.0 or abs(args.beta - 1.0) <= oracle.VERIFY_TOL + linalg.ROUNDING:
            print("error: beta must be positive and differ from the first "
                  "squared distance 1 by more than 1e-7", file=sys.stderr)
            return EXIT_INFEASIBLE
        if args.beta <= oracle.VERIFY_TOL + linalg.ROUNDING:
            print("error: beta must exceed 1e-7: verification cannot tell a smaller "
                  "second squared distance from 0", file=sys.stderr)
            return EXIT_INFEASIBLE
        config = reps.euclidean_representation(g, args.beta)
        alpha, beta = 1.0, args.beta
        sidecar = {"mode": "euclidean", "alpha": alpha, "beta": beta, "radius": None}
    elif args.mode == "spherical":
        # the analysis pass answers every question here, as for analyze;
        # its eigh gives the points, also for a regular graph
        st = reps._analyze_single(g, vectors=True)
        side = args.side
        beta, spherical, radius = {
            "lower": (st.beta_l, st.spherical_at_l, st.rho_l),
            "upper": (st.beta_u, st.spherical_at_u, st.rho_u)}[side]
        beta, radius = float(beta[0]), float(radius[0])
        if math.isnan(beta):
            raise reps.EndpointError(f"{side} endpoint does not exist for this graph")
        if not spherical[0]:
            raise reps.EndpointError(f"EDM at the {side} endpoint is not spherical")
        points = st.configuration(side[0])[0]
        config = edm.Configuration(points[:, points.any(axis=0)])
        alpha = 1.0
        sidecar = {"mode": "spherical", "side": side, "alpha": alpha, "beta": beta,
                   "radius": radius}
    else:  # jspherical
        js = reps.j_spherical(g)
        config = js.config
        alpha, beta = 2.0, js.beta
        sidecar = {"mode": "jspherical", "alpha": alpha, "beta": beta,
                   "delta": js.delta, "radius": 1.0}
    report = oracle.verify_two_distance(config, g, alpha, beta)
    if not report.passed:
        print(f"error: configuration failed two-distance verification "
              f"(max deviation {report.max_deviation:.3e})", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    if args.mode == "euclidean":  # the circumradius of a verified configuration, if spherical
        radius = float(reps._witness_radius(config.points))
        sidecar["radius"] = None if math.isnan(radius) else radius
    return _write_coordinates(args.out, config, sidecar)


def cmd_sweep(args) -> int:
    from . import oracle
    if not 2 <= args.n <= 8:
        print(f"error: n_max too {'large' if args.n > 8 else 'small'} (must be 2..8)",
              file=sys.stderr)
        return EXIT_PARSE
    summary = oracle.invariant_sweep(min(args.n, 6), sample_7_8=args.samples if args.n >= 7 else 0,
                                     seed=args.seed)
    text = summary.to_json(indent=2)
    if not args.out:
        print(text)
    elif _write({args.out: text + "\n"}):
        return EXIT_PARSE
    return EXIT_OK if summary.ok else EXIT_DIAGNOSTIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twodist",
        description="Two-distance representations of graphs: dimensions, "
                    "coordinates and invariant sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--edges", help="path to an edge-list file")
        src.add_argument("--g6", help="inline graph6 string")

    p_an = sub.add_parser("analyze", help="full representation report as JSON")
    add_common(p_an)
    p_an.add_argument("--tol-eig", type=_tolerance, default=linalg.EIG_TOL,
                      help="relative eigenvalue clustering tolerance (finite, > 0)")
    p_an.add_argument("--pretty", action="store_true", help="indent the JSON output")
    p_an.set_defaults(func=cmd_analyze)

    p_em = sub.add_parser("embed", help="write a coordinate CSV plus JSON sidecar")
    add_common(p_em)
    p_em.add_argument("--mode", required=True,
                      choices=["euclidean", "spherical", "jspherical"])
    p_em.add_argument("--beta", type=_finite,
                      help="second squared distance, above 1e-7 and more than 1e-7 from 1 "
                           "(euclidean mode)")
    p_em.add_argument("--side", choices=["lower", "upper"], default="lower",
                      help="feasibility endpoint (spherical mode)")
    p_em.add_argument("--out", required=True, help="output CSV path")
    p_em.set_defaults(func=cmd_embed)

    p_sw = sub.add_parser("sweep", help="run the exhaustive invariant sweep")
    p_sw.add_argument("--n", type=int, required=True, help="max node count N, 2..8: every graph "
                      "on up to min(N, 6) nodes; any N >= 7 also samples orders 7 and 8")
    p_sw.add_argument("--samples", type=_nonnegative, default=200, help="random graphs at "
                      "orders 7 and 8 when N >= 7: half at each, the odd one at 7")
    p_sw.add_argument("--seed", type=_nonnegative, default=0, help="seed of the samples (>= 0)")
    p_sw.add_argument("--out", help="write the summary JSON to this path")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


#: The parser, built by the first ``main`` call and reused by later ones.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_FAILURES) as exc:
        code, prefix = next(v for k, v in _FAILURES.items() if isinstance(exc, k))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
