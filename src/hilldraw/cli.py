"""Command-line surface: generate constructions, verify and count drawings,
mutate them, run random-drawing experiments, and export figures.

Exit codes: 0 success (and, for verify, all checks passed), 1 verification
failure, 2 construction/document/runtime error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .construct import (SEEDS, ConstructionError, default_plan_chain,
                        recursive_construct)
from .docio import (DocumentError, drawing_to_doc, dump_drawing,
                    dump_report, experiment_to_doc, load_drawing, write_json)
from .drawing import (add_random_apex, config_from_drawing,
                      count_crossings, delete_vertex, extend_to_complete,
                      verify)
from .geom import (DEFAULT_TOL, DegenerateConfigurationError,
                   ToleranceConfig)
from .montecarlo import (DistributionSpec, ExperimentConfig, SamplingError,
                         k4_census, ratio_experiment)
from .svg import export_svg

USAGE_EXIT = 64
FAILURE_EXIT = 1
ERROR_EXIT = 2


class UsageError(Exception):
    """Bad argument values; reported with the usage exit code."""


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _value(cast, ok, expected: str):
    """Argument type: cast(text) where ok accepts it, else a usage error
    that says what was expected."""
    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value
    return parse


_positive_int = _value(int, lambda x: x >= 1, "a positive integer")
_eps = _value(float, lambda x: 0.0 < x <= math.pi / 2,
              "a number in (0, pi/2]")
_side = _value(str, lambda x: x in ("below", "above"),
               "'below' or 'above'")


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerances", metavar="FILE",
                        help="JSON file overriding the numeric tolerances")
    common.add_argument("--threads", type=_positive_int, default=1,
                        metavar="T",
                        help="worker processes for the pair sweep, which "
                             "counts only drawings the sign counter's "
                             "guard refuses (results are independent of T)")
    return common


def build_parser() -> _Parser:
    common = _common_options()
    parser = _Parser(prog="hilldraw",
                     description="Antipodal geodesic drawings of complete "
                                 "graphs with the Hill number of crossings.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    g = sub.add_parser("generate", parents=[common],
                       help="construct a strength-0 drawing from a seed "
                            "arrangement")
    g.add_argument("--seed-arrangement", choices=sorted(SEEDS),
                   required=True)
    g.add_argument("--multiplicities", required=True, metavar="LIST",
                   help="per-level groups, e.g. '4' or '2,2' or '3;2,1,1'")
    g.add_argument("--depth", type=_positive_int, default=None,
                   help="blowup levels; with a single multiplicity m, each "
                        "level splits every half-circle into m")
    g.add_argument("--eps", type=_eps, default=0.2,
                   help="neighborhood radius of the first blowup level")
    g.add_argument("--sides", default=None, metavar="LIST",
                   help="below/above per half-circle and level, e.g. "
                        "'below,above;below,below,below'")
    g.add_argument("--rng-seed", type=int, default=None)
    g.add_argument("-o", "--output", default=None,
                   help="output file (default: stdout)")

    v = sub.add_parser("verify", parents=[common],
                       help="check a drawing against its closed-form count")
    v.add_argument("file", nargs="?", default="-")
    v.add_argument("--report", default=None, metavar="OUT",
                   help="write the verification report as JSON")

    c = sub.add_parser("count", parents=[common],
                       help="print crossing totals for a drawing")
    c.add_argument("file", nargs="?", default="-")

    m = sub.add_parser("mutate", parents=[common],
                       help="delete a vertex or add an apex, then verify")
    action = m.add_mutually_exclusive_group(required=True)
    action.add_argument("--delete-vertex", type=int, default=None,
                        metavar="V")
    action.add_argument("--add-apex", action="store_true")
    m.add_argument("--rng-seed", type=int, default=None)
    m.add_argument("file", nargs="?", default="-")
    m.add_argument("-o", "--output", required=True)

    mc = sub.add_parser("montecarlo", parents=[common],
                        help="random-drawing experiments")
    mc.add_argument("--n", type=_value(int, lambda x: x >= 4,
                                       "an integer >= 4"), default=None)
    mc.add_argument("--trials", type=_positive_int, required=True)
    mc.add_argument("--dist", default="uniform", metavar="SPEC",
                    help="'uniform' or 'cap:THETA'")
    mc.add_argument("--rng-seed", type=int, default=None)
    mc.add_argument("--census-k4", action="store_true",
                    help="histogram crossing counts of random 4-point "
                         "drawings instead of a ratio experiment")
    mc.add_argument("-o", "--output", default=None)

    e = sub.add_parser("export", parents=[common],
                       help="render a drawing to SVG")
    e.add_argument("file", nargs="?", default="-")
    e.add_argument("--svg", required=True, metavar="OUT")
    e.add_argument("--projection", default="ortho", choices=["ortho"])

    return parser


def _load_tolerances(path) -> ToleranceConfig | None:
    """The --tolerances override, or None: drawing files then keep the
    tolerances stored in them, and other commands use DEFAULT_TOL."""
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return ToleranceConfig.from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"--tolerances {path}: {exc}") from None


def _rng_seed(value) -> int:
    """--rng-seed, else HILLDRAW_SEED, else 0: a non-negative integer."""
    name = "--rng-seed"
    if value is None:
        name, value = "HILLDRAW_SEED", os.environ.get("HILLDRAW_SEED", "0")
    try:
        return _value(int, lambda x: x >= 0, "a non-negative integer")(value)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{name}: {exc}") from None


def _parse_level_list(text, what, cast, allow_empty=False):
    levels = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            if allow_empty:
                levels.append([])
                continue
            raise UsageError(f"empty level in --{what}")
        try:
            levels.append([cast(x.strip()) for x in chunk.split(",")])
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"--{what}: {exc}") from None
    return levels


def _cmd_generate(args, tol) -> int:
    levels = _parse_level_list(args.multiplicities, "multiplicities",
                               _positive_int)
    depth = args.depth if args.depth is not None else len(levels)
    if len(levels) == 1 and len(levels[0]) == 1 and depth > 1:
        m = levels[0][0]
        levels = [[m] * m ** level for level in range(depth)]
    if len(levels) != depth:
        raise UsageError(f"--multiplicities lists {len(levels)} levels "
                         f"but --depth is {depth}")
    sides = None
    if args.sides is not None:
        sides = _parse_level_list(args.sides, "sides", _side,
                                  allow_empty=True)
        for level, (flags, groups) in enumerate(zip(sides, levels)):
            if flags and len(flags) != len(groups):
                raise UsageError(f"--sides: level {level} lists {len(flags)} "
                                 f"flags for {len(groups)} groups")
    tol = tol or DEFAULT_TOL
    seed_arr = SEEDS[args.seed_arrangement](tol)
    if len(levels[0]) != len(seed_arr):
        raise UsageError(
            f"first level lists {len(levels[0])} groups but seed "
            f"'{args.seed_arrangement}' has {len(seed_arr)} half-circles")
    plans = default_plan_chain(levels, eps0=args.eps, sides=sides, tol=tol)
    rng_seed = _rng_seed(args.rng_seed)
    rng = np.random.default_rng(rng_seed)
    config, asg = recursive_construct(seed_arr, plans, rng, tol)
    provenance = {
        "construction": "blowup",
        "seed_arrangement": args.seed_arrangement,
        "multiplicities": levels,
        "eps": args.eps,
        "sides": sides,
        "rng_seed": rng_seed,
    }
    d = extend_to_complete(config, asg, tol, provenance)
    write_json(drawing_to_doc(d), args.output)
    print(f"generated complete drawing on {d.n} vertices "
          f"({len(d.uv)} edges)", file=sys.stderr)
    return 0


def _print_report(report) -> None:
    for check in report.checks:
        status = "ok  " if check.passed else "FAIL"
        print(f"{status} {check.name}: predicted={check.predicted} "
              f"observed={check.observed}")
    print(f"total crossings: {report.crossings.total}")


def _cmd_verify(args, tol) -> int:
    d = load_drawing(args.file, tol)
    report = verify(d, tol, workers=args.threads)
    _print_report(report)
    if args.report:
        dump_report(report, args.report)
    return 0 if report.passed else FAILURE_EXIT


def _cmd_count(args, tol) -> int:
    d = load_drawing(args.file, tol)
    rep = count_crossings(d, tol, workers=args.threads)
    print(f"total: {rep.total}")
    print("per-vertex: " + " ".join(str(c) for c in rep.per_vertex))
    return 0


def _cmd_mutate(args, tol) -> int:
    d = load_drawing(args.file, tol)
    if args.delete_vertex is not None:
        out = delete_vertex(d, args.delete_vertex, tol)
    else:
        config, asg = config_from_drawing(d)
        rng = np.random.default_rng(_rng_seed(args.rng_seed))
        out = add_random_apex(config, asg, rng, tol or d.tol,
                              provenance=dict(d.provenance))
    report = verify(out, tol, workers=args.threads)
    _print_report(report)
    dump_drawing(out, args.output)
    return 0 if report.passed else FAILURE_EXIT


def _parse_dist(text) -> DistributionSpec:
    if text == "uniform":
        return DistributionSpec(kind="uniform")
    if text.startswith("cap:"):
        try:
            return DistributionSpec(kind="cap", theta=float(text[4:]))
        except ValueError:
            raise UsageError(f"--dist: bad cap radius in {text!r}") from None
    raise UsageError(f"--dist: unknown distribution {text!r}")


def _cmd_montecarlo(args, tol) -> int:
    dist = _parse_dist(args.dist)
    seed = _rng_seed(args.rng_seed)
    tol = tol or DEFAULT_TOL
    if args.census_k4:
        result = k4_census(args.trials, dist, seed, tol)
    elif args.n is None:
        raise UsageError("--n is required unless --census-k4 is given")
    else:
        config = ExperimentConfig(n=args.n, trials=args.trials, seed=seed,
                                  distribution=dist)
        result = ratio_experiment(config, tol, workers=args.threads)
    write_json(experiment_to_doc(result), args.output)
    return 0


def _cmd_export(args, tol) -> int:
    d = load_drawing(args.file, tol)
    total = count_crossings(d, tol, workers=args.threads).total
    text = export_svg(d, tol, projection=args.projection, crossings=total)
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "count": _cmd_count,
    "mutate": _cmd_mutate,
    "montecarlo": _cmd_montecarlo,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _load_tolerances(args.tolerances)
        return _COMMANDS[args.command](args, tol)
    except UsageError as exc:
        print(f"hilldraw: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DocumentError, ConstructionError, DegenerateConfigurationError,
            SamplingError, OSError, ValueError) as exc:
        print(f"hilldraw: error: {exc}", file=sys.stderr)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
