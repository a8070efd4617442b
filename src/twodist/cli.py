"""Command-line front end: analyze graphs, emit coordinate files, run sweeps.

Exit codes: 0 success, 2 parse/usage failure (including an unwritable
output path), 3 internal consistency
diagnostic (including a sweep that finds violations), 4 infeasible request
(bad beta, degenerate graph, non-spherical endpoint).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__, edm, linalg, oracle, representations as reps
from .graphs import Graph, GraphFormatError, encode_graph6, parse_edge_list, parse_graph6

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIAGNOSTIC = 3
EXIT_INFEASIBLE = 4


def _load_graph(args) -> Graph:
    if args.g6 is not None:
        return parse_graph6(args.g6)
    with open(args.edges, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
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
    try:
        g = _load_graph(args)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        doc = _report_document(g, args)
    except edm.InternalConsistencyError as exc:
        print(f"internal consistency diagnostic: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    _emit(doc, args.pretty)
    return EXIT_OK


def _write_coordinates(path: str, config: edm.Configuration, sidecar: dict) -> None:
    """The points as CSV rows of %.17g values ending in \\r\\n, as csv.writer
    writes them, and the sidecar as indented JSON; one write per file."""
    row = ",".join(["%.17g"] * config.dim) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join([row % tuple(r) for r in config.points.tolist()]))
    with open(path + ".json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(sidecar, indent=2) + "\n")


def _unwritable(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_PARSE


def cmd_embed(args) -> int:
    try:
        g = _load_graph(args)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
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
            config = reps.euclidean_representation(g, args.beta)
            alpha, beta = 1.0, args.beta
            sidecar = {"mode": "euclidean", "alpha": alpha, "beta": beta, "radius": None}
        elif args.mode == "spherical":
            # the analysis pass answers every question here, as for analyze;
            # its eigh gives the points, also for a regular graph
            st = reps._analyze_single(g, vectors=True)
            side = args.side or "lower"
            beta, spherical, radius = {
                "lower": (st.beta_l, st.spherical_at_l, st.rho_l),
                "upper": (st.beta_u, st.spherical_at_u, st.rho_u)}[side]
            beta, radius = float(beta[0]), float(radius[0])
            if math.isnan(beta):
                print(f"error: {side} endpoint does not exist for this graph",
                      file=sys.stderr)
                return EXIT_INFEASIBLE
            if not spherical[0]:
                print(f"error: EDM at the {side} endpoint is not spherical",
                      file=sys.stderr)
                return EXIT_INFEASIBLE
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
    except (reps.InfeasibleBetaError, reps.DegenerateGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except edm.InternalConsistencyError as exc:
        print(f"internal consistency diagnostic: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    report = oracle.verify_two_distance(config, g, alpha, beta)
    if not report.passed:
        print(f"error: configuration failed two-distance verification "
              f"(max deviation {report.max_deviation:.3e})", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    if args.mode == "euclidean":  # the circumradius of a verified configuration, if spherical
        radius = float(reps._witness_radius(config.points))
        sidecar["radius"] = None if math.isnan(radius) else radius
    try:
        _write_coordinates(args.out, config, sidecar)
    except OSError as exc:
        return _unwritable(args.out, exc)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not 2 <= args.n <= 8:
        print(f"error: n_max too {'large' if args.n > 8 else 'small'} (must be 2..8)",
              file=sys.stderr)
        return EXIT_PARSE
    summary = oracle.invariant_sweep(min(args.n, 6), sample_7_8=args.samples if args.n >= 7 else 0,
                                     seed=args.seed)
    text = summary.to_json(indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _unwritable(args.out, exc)
    else:
        print(text)
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
                      help="second squared distance, positive and more than 1e-7 from 1 "
                           "(euclidean mode)")
    p_em.add_argument("--side", choices=["lower", "upper"],
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
