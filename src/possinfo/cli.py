"""Batch command-line interface.

Exit codes: 0 success, 1 usage error, 2 data or schema error (an input
too large to hold among them), 3 mathematical error (divergence, order
violation, infeasibility).
Errors print a single machine-parsable line ``error:<category>: <message>``
on stderr.  Output for identical inputs is byte-identical across runs.

The argument parser is built once, at import; ``run_command`` may be
called any number of times in one process and reuses it, as argparse
keeps no state on a parser between parses.
"""

import argparse
import math
import sys

from . import documents
from .approximation import convergence_series
from .continuous import (
    PiecewisePossibility,
    big_g_cont,
    big_h_cont,
    big_k_cont,
    g_cont,
    info,
    level_measure,
    rearrange,
)
from .discrete import DiscreteDistribution
from .errors import (
    DivergenceError,
    InfeasibleProblemError,
    OrderViolationError,
    SchemaError,
)
from .inference import MaxU, solve_max_u, solve_min_distance
from .measures import big_g, big_h, big_k, g_distance, info_tau, u_uncertainty


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="possinfo", description="possibilistic information toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("uncertainty", help="U (or deformed) uncertainty of a discrete distribution")
    p.set_defaults(handler=_cmd_uncertainty)
    p.add_argument("file")
    p.add_argument("--tau", help="tau document for the deformed information function")
    p.add_argument("--bits", action="store_true", help="report in bits instead of nats")

    p = sub.add_parser("info", help="information value of a continuous distribution")
    p.set_defaults(handler=_cmd_info)
    p.add_argument("file")
    p.add_argument("--bits", action="store_true")

    p = sub.add_parser("distance", help="information distance between two distributions")
    p.set_defaults(handler=_cmd_distance)
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--metric", required=True, choices=["g", "G", "H", "K"])
    p.add_argument("--continuous", action="store_true")

    p = sub.add_parser("rearrange", help="descending rearrangement of a continuous distribution")
    p.set_defaults(handler=_cmd_rearrange)
    p.add_argument("file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("approx", help="discrete convergence series toward info(f)")
    p.set_defaults(handler=_cmd_approx)
    p.add_argument("file")
    p.add_argument("--n", required=True, help="comma-separated increasing sample counts")
    p.add_argument("--csv", required=True)

    p = sub.add_parser("infer", help="solve a maximum-uncertainty or minimum-distance problem")
    p.set_defaults(handler=_cmd_infer)
    p.add_argument("problem_file")
    p.add_argument("--out", required=True)

    return parser


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(path, cls, kind):
    obj = documents.parse_distribution(_read(path))
    if not isinstance(obj, cls):
        raise SchemaError(f"{path}: expected a {kind} distribution document")
    return obj


def _print_value(value, bits=False):
    if bits and math.isfinite(value):
        value = value / math.log(2.0)
    print(f"{value:.6f}")


def _cmd_uncertainty(args):
    d = _load(args.file, DiscreteDistribution, "discrete")
    if args.tau:
        value = info_tau(d, documents.parse_tau(_read(args.tau)))
    else:
        value = u_uncertainty(d)
    _print_value(value, args.bits)


def _cmd_info(args):
    _print_value(info(_load(args.file, PiecewisePossibility, "piecewise_linear")), args.bits)


def _cmd_distance(args):
    if args.continuous:
        cls, kind = PiecewisePossibility, "piecewise_linear"
        fn = {"g": g_cont, "G": big_g_cont, "H": big_h_cont, "K": big_k_cont}[args.metric]
    else:
        cls, kind = DiscreteDistribution, "discrete"
        fn = {"g": g_distance, "G": big_g, "H": big_h, "K": big_k}[args.metric]
    _print_value(fn(_load(args.file1, cls, kind), _load(args.file2, cls, kind)))


def _cmd_rearrange(args):
    f = _load(args.file, PiecewisePossibility, "piecewise_linear")
    text = documents.serialize_distribution(rearrange(level_measure(f)))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cmd_approx(args):
    f = _load(args.file, PiecewisePossibility, "piecewise_linear")
    try:
        n_list = [int(part) for part in args.n.split(",") if part.strip()]
    except ValueError:
        raise _UsageError(f"--n must be a comma-separated list of integers, got {args.n!r}")
    series = convergence_series(f, n_list)
    documents.emit_csv(series, args.csv)


def _cmd_infer(args):
    problem = documents.parse_problem(_read(args.problem_file))
    if isinstance(problem.objective, MaxU):
        solution = solve_max_u(problem)
        objective_name = "max_u"
    else:
        solution = solve_min_distance(problem)
        objective_name = "min_distance"
    text = documents.serialize_distribution(
        solution.distribution,
        metadata={"objective": objective_name, "objective_value": solution.objective_value},
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


_PARSER = _build_parser()


def _fail(category, message, code):
    print(f"error:{category}: {message}", file=sys.stderr)
    return code


def run_command(argv):
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
        args.handler(args)
        return 0
    except _UsageError as e:
        return _fail("usage", str(e), 1)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except (DivergenceError, OrderViolationError, InfeasibleProblemError) as e:
        return _fail("math", str(e), 3)
    except ValueError as e:  # SchemaError among them
        return _fail("data", str(e), 2)
    except (MemoryError, OverflowError) as e:  # too large to hold: approx --n 10**16, 10**400
        return _fail("data", str(e) or "out of memory", 2)
    except OSError as e:
        return _fail("io", str(e), 2)


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
