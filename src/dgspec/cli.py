"""Command-line surface.

Grammar::

    dgspec analyze <file>
    dgspec eml verify <file> [--sample N] [--nonempty-only]
    dgspec eml bound <file> --u 0,2,3 --w 1,4
    dgspec toughness <exact|bound|compare> <file> [--allow-large]
    dgspec generate <family> [params ...] -o <file>

Global flags (valid after any subcommand): --format text|json|csv,
--slack-tol, --eig-tol, --cluster-tol, --seed, --threads, -v/--verbose.
Environment variables DGSPEC_FORMAT, DGSPEC_SLACK_TOL, DGSPEC_EIG_TOL,
DGSPEC_CLUSTER_TOL, DGSPEC_SEED, DGSPEC_THREADS override the defaults.

Exit codes: 0 success (including a compare run whose bound fails to
hold), 1 mixing verification FAIL, 2 parse/usage error, 3 precondition
violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import graph as graphs
from .errors import (
    DgspecError,
    EdgeListParseError,
    NumericalError,
    PreconditionError,
)
from .markov import build_transition_matrix, spectral_profile
from .mixing import SubsetPair, eml_bound, eml_bound_simple, eml_lhs, verify_eml
from .reports import (
    BoundOnlyReport,
    GenerateReport,
    PairBoundReport,
    RunConfig,
    analysis_report,
    render,
)
from .toughness import compare_bounds, exact_toughness, toughness_spectral_bound

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


def _env(name: str, cast, fallback):
    raw = os.environ.get(f"DGSPEC_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise PreconditionError(f"bad DGSPEC_{name} value {raw!r}") from exc


def _global_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                   default=_env("FORMAT", str, "text"),
                   help="output format (default text)")
    p.add_argument("--slack-tol", type=float,
                   default=_env("SLACK_TOL", float, 1e-9),
                   help="mixing slack tolerance (default 1e-9)")
    p.add_argument("--eig-tol", type=float,
                   default=_env("EIG_TOL", float, 1e-10),
                   help="eigensolver residual tolerance, relative (default 1e-10)")
    p.add_argument("--cluster-tol", type=float,
                   default=_env("CLUSTER_TOL", float, 1e-8),
                   help="eigenvalue clustering tolerance, relative (default 1e-8)")
    p.add_argument("--seed", type=int, default=_env("SEED", int, 0),
                   help="64-bit seed for sampling and random generators")
    p.add_argument("--threads", type=int,
                   default=_env("THREADS", int, os.cpu_count() or 1),
                   help="worker processes for the toughness enumeration")
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

    p_eml = sub.add_parser("eml", help="mixing-inequality commands")
    eml_sub = p_eml.add_subparsers(dest="eml_command", required=True)
    p_ver = eml_sub.add_parser("verify", parents=[flags],
                               help="sweep subset pairs against both bounds")
    p_ver.add_argument("path")
    p_ver.add_argument("--sample", type=int, default=None, metavar="N",
                       help="check N sampled pairs instead of all 4^n")
    p_ver.add_argument("--nonempty-only", action="store_true",
                       help="restrict the sweep to nonempty subsets")
    p_bnd = eml_sub.add_parser("bound", parents=[flags],
                               help="evaluate the bounds for one subset pair")
    p_bnd.add_argument("path")
    p_bnd.add_argument("--u", required=True,
                       help="comma-separated vertex indices or labels")
    p_bnd.add_argument("--w", required=True,
                       help="comma-separated vertex indices or labels")

    p_tf = sub.add_parser("toughness", parents=[flags],
                          help="exact toughness, its spectral bound, or both")
    p_tf.add_argument("mode", choices=("exact", "bound", "compare"))
    p_tf.add_argument("path")
    p_tf.add_argument("--allow-large", action="store_true",
                      help="override the enumeration cap (exponential cost)")

    p_gen = sub.add_parser("generate", parents=[flags],
                           help="write a generated graph as an edge-list file")
    p_gen.add_argument("family", choices=graphs.GENERATOR_FAMILIES)
    p_gen.add_argument("params", nargs="*",
                       help="family parameters (see README)")
    p_gen.add_argument("-o", "--out", required=True, help="output path")
    return top


def _config(args) -> RunConfig:
    return RunConfig(
        slack_tol=args.slack_tol,
        eig_tol=args.eig_tol,
        cluster_tol=args.cluster_tol,
        fmt=args.fmt,
        seed=args.seed,
        verbosity=args.verbose,
        threads=args.threads,
    )


def _load_graph(path: str) -> graphs.DirectedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise EdgeListParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise EdgeListParseError(f"cannot read {path}: not UTF-8 text") from exc
    return graphs.parse_edge_list(text)


def _parse_subset(arg: str, g: graphs.DirectedGraph) -> list[int]:
    by_label = ({lab: i for i, lab in enumerate(g.labels)}
                if g.labels is not None else {})
    out = []
    for token in arg.split(","):
        token = token.strip()
        if not token:
            continue
        if token in by_label:
            out.append(by_label[token])
            continue
        try:
            idx = int(token)
        except ValueError:
            raise PreconditionError(f"unknown vertex {token!r}") from None
        if not 0 <= idx < g.n:
            raise PreconditionError(f"vertex index {idx} out of range for n={g.n}")
        out.append(idx)
    return out


def _profile(g, cfg: RunConfig):
    return spectral_profile(build_transition_matrix(g),
                            eig_tol=cfg.eig_tol, cluster_tol=cfg.cluster_tol)


def _emit(report, cfg: RunConfig):
    sys.stdout.write(render(report, cfg.fmt, cfg.verbosity))


def _cmd_analyze(args, cfg: RunConfig) -> int:
    g = _load_graph(args.path)
    profile = _profile(g, cfg)
    _emit(analysis_report(g, profile), cfg)
    return EXIT_OK


def _cmd_eml_verify(args, cfg: RunConfig) -> int:
    g = _load_graph(args.path)
    profile = _profile(g, cfg)
    report = verify_eml(profile, sample=args.sample, seed=cfg.seed,
                        nonempty_only=args.nonempty_only,
                        slack_tol=cfg.slack_tol, cap=cfg.eml_cap)
    _emit(report, cfg)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_eml_bound(args, cfg: RunConfig) -> int:
    g = _load_graph(args.path)
    profile = _profile(g, cfg)
    pair = SubsetPair.from_indices(_parse_subset(args.u, g),
                                   _parse_subset(args.w, g))
    lhs = eml_lhs(profile, pair)
    bound = eml_bound(profile, pair)
    simple = eml_bound_simple(profile, pair)
    _emit(PairBoundReport(u=pair.u_indices, w=pair.w_indices, lhs=lhs,
                          bound=bound, bound_simple=simple,
                          slack=bound - lhs, slack_simple=simple - lhs), cfg)
    return EXIT_OK


def _cmd_toughness(args, cfg: RunConfig) -> int:
    g = _load_graph(args.path)
    if args.mode == "exact":
        result = exact_toughness(g, cap=cfg.toughness_cap,
                                 allow_large=args.allow_large,
                                 threads=cfg.threads)
        _emit(result, cfg)
    elif args.mode == "bound":
        _emit(BoundOnlyReport(toughness_spectral_bound(_profile(g, cfg))), cfg)
    else:
        _emit(compare_bounds(g, cap=cfg.toughness_cap,
                             allow_large=args.allow_large,
                             threads=cfg.threads), cfg)
    return EXIT_OK


_PARAM_SPECS = {
    "complete_bidirected": (("n", int),),
    "undirected_cycle": (("n", int),),
    "petersen": (),
    "de_bruijn": (("symbols", int), ("word_len", int)),
    "chord_cycle": (("n", int),),
    "random_strongly_connected": (("n", int), ("p", float)),
}


def _parse_generate_params(family: str, raw: list[str], seed: int) -> dict:
    spec = _PARAM_SPECS[family]
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


def _cmd_generate(args, cfg: RunConfig) -> int:
    params = _parse_generate_params(args.family, args.params, cfg.seed)
    g = graphs.generate(args.family, **params)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(graphs.write_edge_list(g))
    shown = {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()}
    _emit(GenerateReport(family=args.family, params=tuple(shown.items()),
                         path=args.out, n=g.n, edge_count=g.edge_count), cfg)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config(args)
        if args.command == "analyze":
            return _cmd_analyze(args, cfg)
        if args.command == "eml":
            if args.eml_command == "verify":
                return _cmd_eml_verify(args, cfg)
            return _cmd_eml_bound(args, cfg)
        if args.command == "toughness":
            return _cmd_toughness(args, cfg)
        return _cmd_generate(args, cfg)
    except EdgeListParseError as exc:
        print(f"dgspec: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"dgspec: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalError as exc:
        print(f"dgspec: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DgspecError as exc:
        print(f"dgspec: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
