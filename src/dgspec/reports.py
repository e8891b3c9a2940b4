"""Report serialization.

Each report is a frozen dataclass, and its field declaration is the only
field table of the machine-readable formats: ``to_jsonable`` and
``to_csv`` walk ``dataclasses.fields()`` in declaration order, and
``_HEADERS`` gives each report class its "report" / "mode" keys.  Every
JSON value goes through one encoder: floats stay native (their repr
round-trips doubles exactly) except infinities, which become the strings
"infinite" / "-infinite"; complex numbers become {"re": ..., "im": ...};
vertex tuples become lists; a nested dataclass (the comparison's
``exact``, a subset pair) becomes the object of its fields, without header.
``schema.json`` is the contract of that JSON; nothing here reads it back.
CSV writes one header and one row with the same cell codec (vertex tuples
space-separated, None empty).  A report holds only what its command computes.

The shapes the walk does not produce by itself are spelled out here: the
"graph" / "spectral" groups of the analysis report (field metadata),
generator params as an object and not in CSV, the analysis CSV's
``eig{i}_re``, ``eig{i}_im`` and ``pi{i}`` columns at the end, and the
``spectral_bound`` column of the bound-only CSV.  Text output (7
significant digits) is laid out by hand.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

from .errors import PreconditionError
from .graph import DirectedGraph
from .markov import SpectralProfile
from .mixing import EmlReport, SubsetPair
from .toughness import BoundComparison, ToughnessResult

FORMATS = ("text", "json", "csv")


# JSON groups of the analysis report's fields
_GRAPH = {"group": "graph"}
_SPECTRAL = {"group": "spectral"}


@dataclass(frozen=True)
class AnalysisReport:
    """Graph summary plus the full spectral section."""

    n: int = field(metadata=_GRAPH)
    edge_count: int = field(metadata=_GRAPH)
    strongly_connected: bool = field(metadata=_GRAPH)
    period: Optional[int] = field(metadata=_GRAPH)
    eigenvalues: tuple[complex, ...] = field(metadata=_SPECTRAL)
    rho: float = field(metadata=_SPECTRAL)
    pi: tuple[float, ...] = field(metadata=_SPECTRAL)
    pi_min: float = field(metadata=_SPECTRAL)
    pi_max: float = field(metadata=_SPECTRAL)
    norm_c: float = field(metadata=_SPECTRAL)
    norm_c_inv: float = field(metadata=_SPECTRAL)
    kappa: float = field(metadata=_SPECTRAL)
    residual: float = field(metadata=_SPECTRAL)


def analysis_report(g: DirectedGraph, profile: SpectralProfile) -> AnalysisReport:
    """The profile's eigenvalues are already in canonical order, and a
    profile exists only for strongly connected graphs of period 1."""
    return AnalysisReport(
        n=g.n,
        edge_count=g.edge_count,
        strongly_connected=True,
        period=1,
        eigenvalues=tuple(complex(z) for z in profile.eigenvalues),
        rho=profile.rho,
        pi=tuple(float(x) for x in profile.pi),
        pi_min=profile.pi_min,
        pi_max=profile.pi_max,
        norm_c=profile.norm_c,
        norm_c_inv=profile.norm_c_inv,
        kappa=profile.kappa,
        residual=profile.residual,
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


_HEADERS = {
    AnalysisReport: {"report": "analysis"},
    EmlReport: {"report": "eml"},
    PairBoundReport: {"report": "eml_pair"},
    ToughnessResult: {"report": "toughness", "mode": "exact"},
    BoundComparison: {"report": "toughness", "mode": "compare"},
    BoundOnlyReport: {"report": "toughness", "mode": "bound"},
    GenerateReport: {"report": "generate"},
}


def _header(report) -> dict:
    try:
        return _HEADERS[type(report)]
    except KeyError:
        raise TypeError(f"no serialized form for {type(report).__name__}") from None


def _num(x: float):
    if math.isinf(x):
        return "infinite" if x > 0 else "-infinite"
    return x


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _json_value(name: str, x):
    if x is None:
        return None
    if name == "params":
        return dict(x)
    if is_dataclass(x):
        return _json_fields(x)
    if isinstance(x, float):
        return _num(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, tuple):
        return [_json_value(name, v) for v in x]
    return x


def _json_fields(report) -> dict:
    out = {}
    for f in fields(report):
        group = f.metadata.get("group")
        target = out.setdefault(group, {}) if group else out
        target[f.name] = _json_value(f.name, getattr(report, f.name))
    return out


def to_jsonable(report) -> dict:
    return {**_header(report), **_json_fields(report)}


def to_json(report) -> str:
    return json.dumps(to_jsonable(report), indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Text (7 significant digits)
# ---------------------------------------------------------------------------

def _f(x: float) -> str:
    return _num(x) if math.isinf(x) else format(x, ".7g")


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
    elif isinstance(report, EmlReport):
        lines.append(f"mixing sweep: n={report.n} policy={report.policy} "
                     f"pairs={report.pair_count} nonempty_only={report.nonempty_only}")
        lines.append(f"max_violation    = {_f(report.max_violation)} "
                     f"(tolerance {_f(report.slack_tol)}) "
                     f"-> {'PASS' if report.passed else 'FAIL'}")
        lines.append(f"min_slack        = {_f(report.min_slack)} (full bound)")
        lines.append(f"simple_min_slack = {_f(report.simple_min_slack)}")
        lines.append(f"tightness_ratio  = {_f(report.tightness_ratio)}")
        lines.append(f"violations       = {report.theorem_violations} full, "
                     f"{report.simple_violations} simple")
        u = ",".join(str(i) for i in report.worst_pair.u) or "-"
        w = ",".join(str(i) for i in report.worst_pair.w) or "-"
        lines.append(f"worst_pair       = U={{{u}}} W={{{w}}}")
        if verbosity >= 1:
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
# CSV (one header, one row; column orders in README)
# ---------------------------------------------------------------------------

# fields that hold lists and have no CSV column
_CSV_OMITTED = ("eigenvalues", "pi", "params")


def _csv_columns(report, prefix: str = ""):
    """(column, value) pairs; a nested report is flattened under its field
    name, and a subset pair ``<x>pair`` gives columns ``<x>u`` and ``<x>w``."""
    for f in fields(report):
        name, x = prefix + f.name, getattr(report, f.name)
        if f.name in _CSV_OMITTED:
            continue
        if type(x) in _HEADERS:
            yield from _csv_columns(x, name + "_")
        elif isinstance(x, SubsetPair):
            stem = name.removesuffix("pair")
            yield from ((stem + "u", x.u), (stem + "w", x.w))
        else:
            yield name, x


def _csv_cell(x):
    if isinstance(x, float):
        return _num(x)
    if isinstance(x, tuple):
        return " ".join(map(str, x))
    return "" if x is None else x


def to_csv(report) -> str:
    _header(report)
    columns = list(_csv_columns(report))
    if isinstance(report, BoundOnlyReport):
        columns = [("spectral_bound", report.value)]
    elif isinstance(report, AnalysisReport):
        for i, z in enumerate(report.eigenvalues):
            columns += [(f"eig{i}_re", z.real), (f"eig{i}_im", z.imag)]
        columns += [(f"pi{i}", x) for i, x in enumerate(report.pi)]
    names, values = zip(*columns)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerow(map(_csv_cell, values))
    return buf.getvalue()


def render(report, fmt: str, verbosity: int = 0) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report, verbosity)
    raise PreconditionError(f"format must be one of {', '.join(FORMATS)}")
