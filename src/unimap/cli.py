"""Command line front end.

Subcommands mirror the library surface: sampling (sample-unicellular,
sample-cm), exhaustive enumeration histograms (enumerate), the core/branch
decomposition (core), Cheeger machinery (cheeger), the constant pipeline
(constants), exact series tables (series), claim verification (verify), and
the expander experiment (experiment).  Maps travel as one JSON object per
line; graphs as 'p mg' edge lists; witnesses and reports as JSON files.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import random
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .core import core
from .errors import UnimapError
from .expansion import cheeger_exact, is_kappa_expander, spectral_cheeger_bounds
from .experiments import (
    persist_report,
    profile_census,
    run_core_expander_experiment,
    verify_branch_profile_law,
    verify_cm_unicellular,
    verify_decomposition_identity,
    verify_one_vertex_law,
    verify_substitution_transfer,
)
from .maps import (
    decode_map,
    encode_map,
    parse_multigraph,
)
from .samplers import (
    DegreeSequence,
    sample_configuration_model,
    sample_unicellular_fixed_genus,
)
from .series import derive_constants, series_C, series_D, series_T

__all__ = ["main"]

_log = logging.getLogger(__name__)


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a positive integer: {exc}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a number such as 1/3 or 0.2: {exc}")


def _cmd_sample_unicellular(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    for _ in range(args.count):
        m = sample_unicellular_fixed_genus(args.n, args.genus, rng)
        print(encode_map(m))
    return 0


def _cmd_sample_cm(args: argparse.Namespace) -> int:
    degrees = DegreeSequence(args.degrees)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        print(encode_map(sample_configuration_model(degrees, rng)))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from collections import Counter

    census = profile_census(args.n)
    counts: Counter = Counter()
    for (g, _core_edges, _marked, _others), count in census.items():
        # one face by construction, so Euler gives V = n + 1 - 2g
        key = {"genus": g, "vertices": args.n + 1 - 2 * g, "faces": 1}[args.classify]
        counts[key] += count
    total = sum(census.values())
    print("key,count,total")
    for key in sorted(counts):
        print(f"{key},{counts[key]},{total}")
    return 0


def _cmd_core(args: argparse.Namespace) -> int:
    m = decode_map(Path(args.infile).read_text().strip())
    dec = core(m)
    out_map = dec.core_less_M(args.M) if args.M is not None else dec.core
    Path(args.out).write_text(encode_map(out_map) + "\n")

    branches = []
    for i, (drt, attachment) in enumerate(zip(dec.branches, dec.attachments)):
        # the tree's Dyck word as parentheses: "(" down an edge, ")" back up
        contour = "".join("(" if s == 1 else ")" for s in drt.word)
        entry = {
            "size": drt.n_edges,
            "tree": {"contour": contour, "path": list(drt.path)},
            "attachment": list(attachment),
        }
        if i == dec.root_branch_index:
            entry["marked_edge"] = list(dec.marked_edge)
        branches.append(entry)
    Path(args.branches).write_text(json.dumps(branches, indent=2) + "\n")
    _log.info("wrote %s and %s", args.out, args.branches)
    return 0


def _cmd_cheeger(args: argparse.Namespace) -> int:
    g = parse_multigraph(Path(args.infile).read_text())
    wit = None
    if args.spectral:
        low, high = spectral_cheeger_bounds(g)
        payload = {"spectral_lower": low, "spectral_upper": high}
    elif args.kappa is not None:
        ok, wit = is_kappa_expander(g, args.kappa, cap=args.cap)
        payload = {"kappa": _frac_str(args.kappa), "is_expander": ok}
    else:
        payload, wit = {}, cheeger_exact(g, cap=args.cap)
    if wit is not None:
        payload.update(
            {
                "h": _frac_str(wit.h_value),
                "subset": list(wit.subset),
                "boundary": wit.boundary,
                "vol": [wit.vol_x, wit.vol_complement],
            }
        )
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


_PIPELINE_NOTES = {
    "beta_star": "root of the branch-weight equation at c = theta",
    "A": "geometric mean of 1 and 1/(4 beta*), keeps A*beta* inside the disc",
    "B": "(1 + A)/2",
    "r": "B/A",
    "W": "D(A beta*)/(A beta*), exponential-moment constant",
    "c": "-f(eta, 0)/2 from the bad-cut rate function",
    "delta": "largest grid value keeping sup f below -c on the block",
    "M": "smallest branch cutoff fitting the epsilon budget",
    "kappa": "delta/(2M - 1)",
}


def _cmd_constants(args: argparse.Namespace) -> int:
    pipe = derive_constants(args.theta, args.epsilon, eta=args.eta)
    payload = asdict(pipe)
    payload["notes"] = _PIPELINE_NOTES
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _top_coefficient_prints(which: str, order: int, limit: int) -> bool:
    """Whether coefficient ``order`` of T, D or C has at most ``limit``
    digits, Python's cap on printing an int (0 means no cap).

    The three are nondecreasing in k >= 1, so then every coefficient up to
    ``order`` prints.  Coefficient k is Cat(k) = 2 d/(k+1), d or k d for
    d = binom(2k-1, k-1); lgamma gives its log, and only orders within a
    factor e of the cap are decided on the exact integer.
    """
    if order < 1 or limit == 0:
        return True
    k = order
    log_d = math.lgamma(2 * k) - math.lgamma(k) - math.lgamma(k + 1)
    factor = {"T": 2 / (k + 1), "D": 1, "C": k}[which]
    slack = log_d + math.log(factor) - limit * math.log(10)
    if abs(slack) > 1:
        return slack < 0
    d = math.comb(2 * k - 1, k - 1)
    top = {"T": 2 * d // (k + 1), "D": d, "C": k * d}[which]
    return top < 10**limit


def _cmd_series(args: argparse.Namespace) -> int:
    limit = sys.get_int_max_str_digits()
    if not _top_coefficient_prints(args.which, args.order, limit):
        raise UnimapError(
            f"--order {args.order} gives coefficients past Python's limit of "
            f"{limit} digits for printing an int"
        )
    maker = {"T": series_T, "D": series_D, "C": series_C}[args.which]
    coefficients = [str(c) for c in maker(args.order).coeffs]
    if args.format == "json":
        print(json.dumps({"which": args.which, "coefficients": coefficients}))
    else:
        print("k,coefficient")
        for k, c in enumerate(coefficients):
            print(f"{k},{c}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    claim = args.claim
    if claim == "one-vertex-law":
        report = verify_one_vertex_law(tuple(args.p))
    elif claim == "cm-unicellular":
        if args.degrees is None:
            raise UnimapError("cm-unicellular needs --degrees")
        report = verify_cm_unicellular(args.degrees, trials=args.trials, seed=args.seed)
    elif claim == "decomposition-identity":
        report = verify_decomposition_identity(args.n, args.genus)
    elif claim == "branch-profile":
        report = verify_branch_profile_law(args.n, args.genus)
    else:
        report = verify_substitution_transfer(
            instances=args.instances, seed=args.seed if args.seed is not None else 0
        )
    if args.out:
        paths = persist_report(report, args.out)
        print(f"{report.claim}: {report.verdict} -> {paths['report']}", file=sys.stderr)
    else:
        print(report.payload_json())
        print(f"{report.claim}: {report.verdict}", file=sys.stderr)
    return 0 if report.verdict in ("pass", "informational") else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    report = run_core_expander_experiment(
        args.theta, args.epsilon, args.n, args.trials, args.seed
    )
    paths = persist_report(report, args.out)
    print(f"core-expander: {report.verdict} -> {paths['report']}", file=sys.stderr)
    return 0 if report.verdict in ("pass", "informational") else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unimap", description="high-genus one-face maps: sampling, cores, expansion"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="repeat for debug logging"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-unicellular", help="sample U(n, g), exact, by trisection gluing")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_sample_unicellular)

    p = sub.add_parser("sample-cm", help="configuration-model map for fixed degrees")
    p.add_argument(
        "--degrees", type=_parse_int_list, required=True, help="comma-separated, each >= 3"
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_sample_cm)

    p = sub.add_parser("enumerate", help="histogram over all gluings of the 2n-gon")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument(
        "--classify", choices=("genus", "faces", "vertices"), default="genus"
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("core", help="core map and branch forest of a one-face map")
    p.add_argument("--in", dest="infile", required=True, metavar="MAP_JSON")
    p.add_argument("--M", type=int, default=None, help="keep branches shorter than M")
    p.add_argument("--out", required=True, metavar="CORE_JSON")
    p.add_argument("--branches", required=True, metavar="BRANCHES_JSON")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("cheeger", help="exact or spectral edge expansion of a graph")
    p.add_argument("--in", dest="infile", required=True, metavar="GRAPH_EDGES")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--spectral", action="store_true", help="eigenvalue bounds only")
    mode.add_argument(
        "--kappa", type=_parse_fraction, default=None, help="test h >= kappa, e.g. 1/3 or 0.2"
    )
    p.add_argument("--cap", type=int, default=24, help="exact-search vertex cap")
    p.add_argument("--out", required=True, metavar="WITNESS_JSON")
    p.set_defaults(func=_cmd_cheeger)

    p = sub.add_parser("constants", help="run the constant pipeline")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--out", required=True, metavar="PIPELINE_JSON")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("series", help="exact coefficients of T, D, or C")
    p.add_argument("--which", choices=("T", "D", "C"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="run one claim check and report pass/fail")
    p.add_argument(
        "--claim",
        required=True,
        choices=(
            "one-vertex-law",
            "cm-unicellular",
            "decomposition-identity",
            "branch-profile",
            "substitution-transfer",
        ),
    )
    p.add_argument("--p", type=int, nargs="*", default=(2, 4, 6))
    p.add_argument("--degrees", type=_parse_int_list, default=None, help="for cm-unicellular")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--instances", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="persist report under this directory")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="run a named sampling experiment")
    exp_sub = p.add_subparsers(dest="experiment", required=True)
    pe = exp_sub.add_parser("core-expander")
    pe.add_argument("--theta", type=float, required=True)
    pe.add_argument("--epsilon", type=float, required=True)
    pe.add_argument(
        "--n", type=_parse_int_list, required=True, help="edge counts, e.g. 30,40,50"
    )
    pe.add_argument("--trials", type=int, required=True)
    pe.add_argument("--seed", type=int, required=True)
    pe.add_argument("--out", required=True, metavar="DIR")
    pe.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (UnimapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
