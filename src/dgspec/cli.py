"""Command-line surface.

Grammar::

    dgspec analyze <file>
    dgspec eml verify <file> [--sample N] [--nonempty-only]
    dgspec eml bound <file> --u 0,2,3 --w 1,4
    dgspec toughness <exact|bound|compare> <file> [--allow-large]
    dgspec generate <family> [params ...] -o <file>

Global flags, valid after any subcommand: --format text|json|csv,
--seed N, -v/--verbose.  These flags are the only settings; the residual
and slack tolerances are the constants ``linalg.RESIDUAL_TOL`` and
``mixing.SLACK_TOL``.

Exit codes: 0 success (including a compare run whose bound fails to
hold), 1 mixing verification FAIL, 2 parse/usage error, 3 precondition
violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import graph as graphs
from .errors import EdgeListParseError, NumericalError, PreconditionError
from .markov import spectral_profile
from .mixing import (EmlReport, SubsetPair, check_exhaustive_cap, eml_pair_values,
                     verify_eml)
from .reports import (
    FORMATS,
    BoundOnlyReport,
    GenerateReport,
    PairBoundReport,
    analysis_report,
    render,
)
from .toughness import (check_enumeration, compare_bounds, exact_toughness,
                        toughness_spectral_bound)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


def _global_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--format", dest="fmt", choices=FORMATS, default="text",
                   help="output format (default text)")
    p.add_argument("--seed", type=int, default=0,
                   help="64-bit seed for sampling and random generators")
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="more diagnostic output in text mode")
    return p


def _build_parser() -> argparse.ArgumentParser:
    flags = _global_flags()
    top = argparse.ArgumentParser(
        prog="dgspec",
        description="Spectral analysis of directed graphs via their "
                    "random-walk transition matrices.")
    sub = top.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", parents=[flags],
                          help="full spectral report for an edge-list file")
    p_an.add_argument("path")
    p_an.set_defaults(run=_cmd_analyze)

    p_eml = sub.add_parser("eml", help="mixing-inequality commands")
    eml_sub = p_eml.add_subparsers(dest="eml_command", required=True)
    p_ver = eml_sub.add_parser("verify", parents=[flags],
                               help="sweep subset pairs against both bounds")
    p_ver.add_argument("path")
    p_ver.add_argument("--sample", type=int, default=None, metavar="N",
                       help="check N sampled pairs instead of all 4^n")
    p_ver.add_argument("--nonempty-only", action="store_true",
                       help="restrict the sweep to nonempty subsets")
    p_ver.set_defaults(run=_cmd_eml_verify)
    p_bnd = eml_sub.add_parser("bound", parents=[flags],
                               help="evaluate the bounds for one subset pair")
    p_bnd.add_argument("path")
    p_bnd.add_argument("--u", required=True,
                       help="comma-separated vertex indices or labels")
    p_bnd.add_argument("--w", required=True,
                       help="comma-separated vertex indices or labels")
    p_bnd.set_defaults(run=_cmd_eml_bound)

    p_tf = sub.add_parser("toughness", parents=[flags],
                          help="exact toughness, its spectral bound, or both")
    p_tf.add_argument("mode", choices=("exact", "bound", "compare"))
    p_tf.add_argument("path")
    p_tf.add_argument("--allow-large", action="store_true",
                      help="override the enumeration cap (exponential cost)")
    p_tf.set_defaults(run=_cmd_toughness)

    p_gen = sub.add_parser("generate", parents=[flags],
                           help="write a generated graph as an edge-list file")
    p_gen.add_argument("family", choices=graphs.GENERATOR_FAMILIES)
    p_gen.add_argument("params", nargs="*",
                       help="family parameters (see README)")
    p_gen.add_argument("-o", "--out", required=True, help="output path")
    p_gen.set_defaults(run=_cmd_generate)
    return top


def _load_graph(path: str) -> graphs.DirectedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise EdgeListParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise EdgeListParseError(f"cannot read {path}: not UTF-8 text") from exc
    return graphs.parse_edge_list(text)


def _parse_subset(arg: str, g: graphs.DirectedGraph) -> tuple[int, ...]:
    """The sorted vertex indices of comma-separated tokens.  A token that
    is a label of ``g`` names that vertex, else it must be an index."""
    by_label = ({lab: i for i, lab in enumerate(g.labels)}
                if g.labels is not None else {})
    out = set()
    for token in arg.split(","):
        token = token.strip()
        if not token:
            continue
        if token in by_label:
            out.add(by_label[token])
            continue
        try:
            idx = int(token)
        except ValueError:
            raise PreconditionError(f"unknown vertex {token!r}") from None
        if not 0 <= idx < g.n:
            raise PreconditionError(f"vertex index {idx} out of range for n={g.n}")
        out.add(idx)
    return tuple(sorted(out))


def _cmd_analyze(args):
    g = _load_graph(args.path)
    return analysis_report(g, spectral_profile(g))


def _cmd_eml_verify(args):
    g = _load_graph(args.path)
    if args.sample is None:
        # the cap needs only n: reject before the profile's O(n^3) work
        check_exhaustive_cap(g.n)
    return verify_eml(spectral_profile(g), sample=args.sample, seed=args.seed,
                      nonempty_only=args.nonempty_only)


def _cmd_eml_bound(args):
    g = _load_graph(args.path)
    profile = spectral_profile(g)
    pair = SubsetPair(_parse_subset(args.u, g), _parse_subset(args.w, g))
    lhs, bound, simple = eml_pair_values(profile, pair)
    return PairBoundReport(u=pair.u, w=pair.w, lhs=lhs, bound=bound,
                           bound_simple=simple, slack=bound - lhs,
                           slack_simple=simple - lhs)


def _cmd_toughness(args):
    g = _load_graph(args.path)
    if args.mode == "exact":
        return exact_toughness(g, allow_large=args.allow_large)
    if args.mode == "bound":
        return BoundOnlyReport(toughness_spectral_bound(spectral_profile(g)))
    # the checks, then the profile, then the 2^n enumeration: fail as early as can be
    check_enumeration(g, args.allow_large)
    profile = spectral_profile(g)
    return compare_bounds(exact_toughness(g, allow_large=args.allow_large), profile)


def _parse_generate_params(family: str, raw: list[str], seed: int) -> dict:
    spec = graphs.GENERATORS[family][1]
    fixed, rest = raw[:len(spec)], raw[len(spec):]
    if len(fixed) < len(spec):
        names = " ".join(name for name, _ in spec)
        raise PreconditionError(f"{family} needs parameters: {names}")
    params = {}
    for (name, cast), token in zip(spec, fixed):
        try:
            params[name] = cast(token)
        except ValueError:
            raise PreconditionError(
                f"bad value {token!r} for {family} parameter {name}") from None
    if family == "chord_cycle":
        chords = []
        for token in rest:
            try:
                t, h = token.split(":")
                chords.append((int(t), int(h)))
            except ValueError:
                raise PreconditionError(
                    f"bad chord {token!r}; expected tail:head") from None
        if chords:
            params["chords"] = tuple(chords)
    elif rest:
        raise PreconditionError(
            f"unexpected extra parameters for {family}: {' '.join(rest)}")
    if family == "random_strongly_connected":
        params["seed"] = seed
    return params


def _cmd_generate(args):
    params = _parse_generate_params(args.family, args.params, args.seed)
    g = graphs.generate(args.family, **params)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(graphs.write_edge_list(g))
    except OSError as exc:
        raise PreconditionError(f"cannot write {args.out}: {exc.strerror}") from exc
    return GenerateReport(family=args.family, params=tuple(params.items()),
                          path=args.out, n=g.n, edge_count=g.edge_count)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = args.run(args)
        sys.stdout.write(render(report, args.fmt, args.verbose))
        failed = isinstance(report, EmlReport) and not report.passed
        return EXIT_VIOLATION if failed else EXIT_OK
    except EdgeListParseError as exc:
        print(f"dgspec: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"dgspec: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalError as exc:
        print(f"dgspec: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
