"""Run configuration and report serialization.

Every report serializes to text (7 significant digits), JSON (native
floats, whose repr round-trips doubles exactly), and CSV with a fixed,
documented column order.  Infinite values serialize to the strings
"infinite" / "-infinite"; complex numbers to {"re": ..., "im": ...}
objects.  ``report_from_json`` inverts the JSON form exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError
from .graph import DirectedGraph, period
from .markov import SpectralProfile
from .mixing import EmlReport, SubsetPair, indices_from_mask, mask_from_indices
from .toughness import BoundComparison, ToughnessResult

FORMATS = ("text", "json", "csv")


@dataclass
class RunConfig:
    """Tolerances, caps, and output options shared by the CLI commands."""

    slack_tol: float = 1e-9
    eig_tol: float = 1e-10
    cluster_tol: float = 1e-8
    eml_cap: int = 13
    toughness_cap: int = 20
    fmt: str = "text"
    seed: int = 0
    verbosity: int = 0

    def __post_init__(self):
        for name in ("slack_tol", "eig_tol", "cluster_tol"):
            if getattr(self, name) <= 0:
                raise PreconditionError(f"{name} must be positive")
        for name in ("eml_cap", "toughness_cap"):
            if getattr(self, name) < 2:
                raise PreconditionError(f"{name} must be at least 2")
        if self.fmt not in FORMATS:
            raise PreconditionError(f"format must be one of {', '.join(FORMATS)}")


@dataclass(frozen=True)
class AnalysisReport:
    """Graph summary plus the full spectral section."""

    n: int
    edge_count: int
    strongly_connected: bool
    period: Optional[int]
    eigenvalues: tuple[complex, ...]
    rho: float
    pi: tuple[float, ...]
    pi_min: float
    pi_max: float
    norm_c: float
    norm_c_inv: float
    kappa: float
    residual: float
    eml: Optional[EmlReport] = None
    toughness: Optional[BoundComparison] = None


def _spectrum_order(values) -> tuple[complex, ...]:
    return tuple(sorted((complex(v) for v in values),
                        key=lambda z: (-abs(z), -z.real, -z.imag)))


def analysis_report(g: DirectedGraph, profile: SpectralProfile,
                    eml: Optional[EmlReport] = None,
                    toughness: Optional[BoundComparison] = None) -> AnalysisReport:
    return AnalysisReport(
        n=g.n,
        edge_count=g.edge_count,
        strongly_connected=True,
        period=period(g),
        eigenvalues=_spectrum_order(profile.decomposition.eigenvalues),
        rho=profile.rho,
        pi=tuple(float(x) for x in profile.pi),
        pi_min=profile.pi_min,
        pi_max=profile.pi_max,
        norm_c=profile.norm_c,
        norm_c_inv=profile.norm_c_inv,
        kappa=profile.kappa,
        residual=profile.decomposition.residual,
        eml=eml,
        toughness=toughness,
    )


@dataclass(frozen=True)
class PairBoundReport:
    """Single subset-pair evaluation of both mixing bounds."""

    u: tuple[int, ...]
    w: tuple[int, ...]
    lhs: float
    bound: float
    bound_simple: float
    slack: float
    slack_simple: float


@dataclass(frozen=True)
class BoundOnlyReport:
    """Spectral toughness bound on its own (CLI ``toughness bound``)."""

    value: float


@dataclass(frozen=True)
class GenerateReport:
    """Confirmation record written after generating an edge-list file."""

    family: str
    params: tuple[tuple[str, object], ...]
    path: str
    n: int
    edge_count: int


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _num(x: float):
    if math.isinf(x):
        return "infinite" if x > 0 else "-infinite"
    return x


def _num_back(x) -> float:
    if x == "infinite":
        return math.inf
    if x == "-infinite":
        return -math.inf
    return float(x)


def _complex_out(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def to_jsonable(report) -> dict:
    if isinstance(report, AnalysisReport):
        return {
            "report": "analysis",
            "graph": {
                "n": report.n,
                "edge_count": report.edge_count,
                "strongly_connected": report.strongly_connected,
                "period": report.period,
            },
            "spectral": {
                "eigenvalues": [_complex_out(z) for z in report.eigenvalues],
                "rho": report.rho,
                "pi": list(report.pi),
                "pi_min": report.pi_min,
                "pi_max": report.pi_max,
                "norm_c": report.norm_c,
                "norm_c_inv": report.norm_c_inv,
                "kappa": report.kappa,
                "residual": report.residual,
            },
            "eml": to_jsonable(report.eml) if report.eml else None,
            "toughness": to_jsonable(report.toughness) if report.toughness else None,
        }
    if isinstance(report, EmlReport):
        return {
            "report": "eml",
            "n": report.n,
            "pair_count": report.pair_count,
            "policy": report.policy,
            "sample_count": report.sample_count,
            "seed": report.seed,
            "nonempty_only": report.nonempty_only,
            "slack_tol": report.slack_tol,
            "max_violation": report.max_violation,
            "min_slack": report.min_slack,
            "simple_min_slack": report.simple_min_slack,
            "stmt_min_slack": report.stmt_min_slack,
            "bound_gap_min": report.bound_gap_min,
            "mean_slack": report.mean_slack,
            "tightness_ratio": report.tightness_ratio,
            "theorem_violations": report.theorem_violations,
            "simple_violations": report.simple_violations,
            "worst_pair": {
                "u": list(indices_from_mask(report.worst_pair.u)),
                "w": list(indices_from_mask(report.worst_pair.w)),
            },
            "passed": report.passed,
            "rows": None if report.rows is None else [
                {
                    "u": list(indices_from_mask(r[0])),
                    "w": list(indices_from_mask(r[1])),
                    "lhs": r[2], "bound": r[3],
                    "bound_simple": r[4], "slack": r[5],
                }
                for r in report.rows
            ],
        }
    if isinstance(report, ToughnessResult):
        return {
            "report": "toughness",
            "mode": "exact",
            "value": _num(report.value),
            "witness": None if report.witness is None else list(report.witness),
            "component_count": report.component_count,
        }
    if isinstance(report, BoundComparison):
        return {
            "report": "toughness",
            "mode": "compare",
            "exact": {
                "value": _num(report.exact.value),
                "witness": None if report.exact.witness is None
                else list(report.exact.witness),
                "component_count": report.exact.component_count,
            },
            "spectral_bound": _num(report.spectral_bound),
            "gap": _num(report.gap),
            "holds": report.holds,
            "note": report.note,
        }
    if isinstance(report, BoundOnlyReport):
        return {
            "report": "toughness",
            "mode": "bound",
            "value": _num(report.value),
        }
    if isinstance(report, PairBoundReport):
        return {
            "report": "eml_pair",
            "u": list(report.u),
            "w": list(report.w),
            "lhs": report.lhs,
            "bound": report.bound,
            "bound_simple": report.bound_simple,
            "slack": report.slack,
            "slack_simple": report.slack_simple,
        }
    if isinstance(report, GenerateReport):
        return {
            "report": "generate",
            "family": report.family,
            "params": {k: v for k, v in report.params},
            "path": report.path,
            "n": report.n,
            "edge_count": report.edge_count,
        }
    raise TypeError(f"no JSON form for {type(report).__name__}")


def to_json(report) -> str:
    return json.dumps(to_jsonable(report), indent=2, allow_nan=False) + "\n"


def _eml_from_dict(d: dict) -> EmlReport:
    return EmlReport(
        n=d["n"],
        pair_count=d["pair_count"],
        policy=d["policy"],
        sample_count=d["sample_count"],
        seed=d["seed"],
        nonempty_only=d["nonempty_only"],
        slack_tol=d["slack_tol"],
        max_violation=d["max_violation"],
        min_slack=d["min_slack"],
        simple_min_slack=d["simple_min_slack"],
        stmt_min_slack=d["stmt_min_slack"],
        bound_gap_min=d["bound_gap_min"],
        mean_slack=d["mean_slack"],
        tightness_ratio=d["tightness_ratio"],
        theorem_violations=d["theorem_violations"],
        simple_violations=d["simple_violations"],
        worst_pair=SubsetPair(mask_from_indices(d["worst_pair"]["u"]),
                              mask_from_indices(d["worst_pair"]["w"])),
        passed=d["passed"],
        rows=None if d.get("rows") is None else tuple(
            (mask_from_indices(r["u"]), mask_from_indices(r["w"]),
             r["lhs"], r["bound"], r["bound_simple"], r["slack"])
            for r in d["rows"]
        ),
    )


def _toughness_result_from_dict(d: dict) -> ToughnessResult:
    return ToughnessResult(
        value=_num_back(d["value"]),
        witness=None if d["witness"] is None else tuple(d["witness"]),
        component_count=d["component_count"],
    )


def report_from_json(text: str):
    """Inverse of ``to_json`` for every report shape."""
    d = json.loads(text)
    kind = d.get("report")
    if kind == "analysis":
        sp = d["spectral"]
        return AnalysisReport(
            n=d["graph"]["n"],
            edge_count=d["graph"]["edge_count"],
            strongly_connected=d["graph"]["strongly_connected"],
            period=d["graph"]["period"],
            eigenvalues=tuple(complex(z["re"], z["im"]) for z in sp["eigenvalues"]),
            rho=sp["rho"],
            pi=tuple(sp["pi"]),
            pi_min=sp["pi_min"],
            pi_max=sp["pi_max"],
            norm_c=sp["norm_c"],
            norm_c_inv=sp["norm_c_inv"],
            kappa=sp["kappa"],
            residual=sp["residual"],
            eml=_eml_from_dict(d["eml"]) if d.get("eml") else None,
            toughness=_compare_from_dict(d["toughness"]) if d.get("toughness") else None,
        )
    if kind == "eml":
        return _eml_from_dict(d)
    if kind == "toughness" and d.get("mode") == "exact":
        return _toughness_result_from_dict(d)
    if kind == "toughness" and d.get("mode") == "compare":
        return _compare_from_dict(d)
    if kind == "toughness" and d.get("mode") == "bound":
        return BoundOnlyReport(value=_num_back(d["value"]))
    if kind == "eml_pair":
        return PairBoundReport(
            u=tuple(d["u"]), w=tuple(d["w"]), lhs=d["lhs"], bound=d["bound"],
            bound_simple=d["bound_simple"], slack=d["slack"],
            slack_simple=d["slack_simple"])
    if kind == "generate":
        return GenerateReport(
            family=d["family"], params=tuple(d["params"].items()),
            path=d["path"], n=d["n"], edge_count=d["edge_count"])
    raise PreconditionError(f"unrecognized report payload: {kind!r}")


def _compare_from_dict(d: dict) -> BoundComparison:
    return BoundComparison(
        exact=_toughness_result_from_dict({**d["exact"], "report": "toughness"}),
        spectral_bound=_num_back(d["spectral_bound"]),
        gap=_num_back(d["gap"]),
        holds=d["holds"],
        note=d.get("note"),
    )


# ---------------------------------------------------------------------------
# Text (7 significant digits)
# ---------------------------------------------------------------------------

def _f(x: float) -> str:
    if math.isinf(x):
        return "infinite" if x > 0 else "-infinite"
    return format(x, ".7g")


def to_text(report, verbosity: int = 0) -> str:
    lines = []
    if isinstance(report, AnalysisReport):
        lines.append(f"graph: n={report.n} edges={report.edge_count} "
                     f"strongly_connected={'yes' if report.strongly_connected else 'no'} "
                     f"period={report.period}")
        lines.append("eigenvalues (descending modulus):")
        for z in report.eigenvalues:
            lines.append(f"  {_f(z.real):>14s} {'+' if z.imag >= 0 else '-'} "
                         f"{_f(abs(z.imag))}i   |.|={_f(abs(z))}")
        lines.append(f"rho        = {_f(report.rho)}")
        lines.append(f"pi         = [{', '.join(_f(x) for x in report.pi)}]")
        lines.append(f"pi_min     = {_f(report.pi_min)}   pi_max = {_f(report.pi_max)}")
        lines.append(f"norm_c     = {_f(report.norm_c)}   norm_c_inv = {_f(report.norm_c_inv)}")
        lines.append(f"kappa      = {_f(report.kappa)}")
        lines.append(f"residual   = {_f(report.residual)}")
        if report.eml:
            lines.append("")
            lines.append(to_text(report.eml, verbosity).rstrip())
        if report.toughness:
            lines.append("")
            lines.append(to_text(report.toughness, verbosity).rstrip())
    elif isinstance(report, EmlReport):
        lines.append(f"mixing sweep: n={report.n} policy={report.policy} "
                     f"pairs={report.pair_count} nonempty_only={report.nonempty_only}")
        lines.append(f"max_violation    = {_f(report.max_violation)} "
                     f"(tolerance {_f(report.slack_tol)}) "
                     f"-> {'PASS' if report.passed else 'FAIL'}")
        lines.append(f"min_slack        = {_f(report.min_slack)} (full bound)")
        lines.append(f"simple_min_slack = {_f(report.simple_min_slack)}")
        lines.append(f"mean_slack       = {_f(report.mean_slack)}")
        lines.append(f"tightness_ratio  = {_f(report.tightness_ratio)}")
        lines.append(f"violations       = {report.theorem_violations} full, "
                     f"{report.simple_violations} simple")
        u = ",".join(str(i) for i in report.worst_pair.u_indices) or "-"
        w = ",".join(str(i) for i in report.worst_pair.w_indices) or "-"
        lines.append(f"worst_pair       = U={{{u}}} W={{{w}}}")
        if verbosity >= 1:
            lines.append(f"stmt_min_slack   = {_f(report.stmt_min_slack)} "
                         "(|sum - |U| pi(U)| variant, reported only)")
            lines.append(f"bound_gap_min    = {_f(report.bound_gap_min)} "
                         "(simple bound minus full bound)")
    elif isinstance(report, ToughnessResult):
        if report.is_infinite:
            lines.append("toughness = infinite (no removal set disconnects the graph)")
        else:
            witness = ",".join(str(v) for v in report.witness)
            lines.append(f"toughness = {_f(report.value)} "
                         f"(witness S={{{witness}}}, components={report.component_count})")
    elif isinstance(report, BoundComparison):
        lines.append(to_text(report.exact).rstrip())
        lines.append(f"spectral_bound = {_f(report.spectral_bound)}")
        lines.append(f"gap            = {_f(report.gap)}")
        lines.append(f"bound holds    = {'yes' if report.holds else 'NO'}")
        if report.note:
            lines.append(f"note: {report.note}")
    elif isinstance(report, BoundOnlyReport):
        lines.append(f"spectral_bound = {_f(report.value)}")
    elif isinstance(report, PairBoundReport):
        lines.append(f"U = {{{','.join(map(str, report.u)) or '-'}}}  "
                     f"W = {{{','.join(map(str, report.w)) or '-'}}}")
        lines.append(f"lhs          = {_f(report.lhs)}")
        lines.append(f"bound        = {_f(report.bound)}   slack = {_f(report.slack)}")
        lines.append(f"bound_simple = {_f(report.bound_simple)}   "
                     f"slack = {_f(report.slack_simple)}")
    elif isinstance(report, GenerateReport):
        lines.append(f"wrote {report.family} graph "
                     f"(n={report.n}, edges={report.edge_count}) to {report.path}")
    else:
        raise TypeError(f"no text form for {type(report).__name__}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV (fixed column orders; see README)
# ---------------------------------------------------------------------------

def _csv(header: list[str], row: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(row)
    return buf.getvalue()


def _csv_cell(x):
    if isinstance(x, float):
        return _num(x)
    if x is None:
        return ""
    return x


def to_csv(report) -> str:
    if isinstance(report, AnalysisReport):
        header = ["n", "edge_count", "strongly_connected", "period", "rho",
                  "pi_min", "pi_max", "norm_c", "norm_c_inv", "kappa", "residual"]
        row = [report.n, report.edge_count, report.strongly_connected,
               report.period, report.rho, report.pi_min, report.pi_max,
               report.norm_c, report.norm_c_inv, report.kappa, report.residual]
        for i, z in enumerate(report.eigenvalues):
            header += [f"eig{i}_re", f"eig{i}_im"]
            row += [z.real, z.imag]
        for i, x in enumerate(report.pi):
            header.append(f"pi{i}")
            row.append(x)
        return _csv(header, [_csv_cell(x) for x in row])
    if isinstance(report, EmlReport):
        header = ["n", "pair_count", "policy", "sample_count", "seed",
                  "nonempty_only", "slack_tol", "max_violation", "min_slack",
                  "simple_min_slack", "stmt_min_slack", "bound_gap_min",
                  "mean_slack", "tightness_ratio", "theorem_violations",
                  "simple_violations", "worst_u", "worst_w", "passed"]
        row = [report.n, report.pair_count, report.policy, report.sample_count,
               report.seed, report.nonempty_only, report.slack_tol,
               report.max_violation, report.min_slack, report.simple_min_slack,
               report.stmt_min_slack, report.bound_gap_min, report.mean_slack,
               report.tightness_ratio, report.theorem_violations,
               report.simple_violations,
               " ".join(str(i) for i in report.worst_pair.u_indices),
               " ".join(str(i) for i in report.worst_pair.w_indices),
               report.passed]
        return _csv(header, [_csv_cell(x) for x in row])
    if isinstance(report, ToughnessResult):
        header = ["value", "witness", "component_count"]
        row = [_num(report.value),
               "" if report.witness is None else " ".join(map(str, report.witness)),
               report.component_count]
        return _csv(header, [_csv_cell(x) for x in row])
    if isinstance(report, BoundComparison):
        header = ["exact_value", "exact_witness", "exact_component_count",
                  "spectral_bound", "gap", "holds", "note"]
        row = [_num(report.exact.value),
               "" if report.exact.witness is None
               else " ".join(map(str, report.exact.witness)),
               report.exact.component_count,
               _num(report.spectral_bound), _num(report.gap),
               report.holds, report.note]
        return _csv(header, [_csv_cell(x) for x in row])
    if isinstance(report, BoundOnlyReport):
        return _csv(["spectral_bound"], [_csv_cell(_num(report.value))])
    if isinstance(report, PairBoundReport):
        header = ["u", "w", "lhs", "bound", "bound_simple", "slack", "slack_simple"]
        row = [" ".join(map(str, report.u)), " ".join(map(str, report.w)),
               report.lhs, report.bound, report.bound_simple,
               report.slack, report.slack_simple]
        return _csv(header, [_csv_cell(x) for x in row])
    if isinstance(report, GenerateReport):
        header = ["family", "path", "n", "edge_count"]
        row = [report.family, report.path, report.n, report.edge_count]
        return _csv(header, [_csv_cell(x) for x in row])
    raise TypeError(f"no CSV form for {type(report).__name__}")


def render(report, fmt: str, verbosity: int = 0) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    return to_text(report, verbosity)
