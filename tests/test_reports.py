import csv
import json
import math
from dataclasses import fields
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dgspec import (
    DgspecError,
    PreconditionError,
    analysis_report,
    chord_cycle,
    compare_bounds,
    complete_bidirected,
    exact_toughness,
    graph_from_edges,
    random_strongly_connected,
    render,
    spectral_profile,
    to_json,
    toughness_spectral_bound,
    verify_eml,
)
from dgspec.mixing import SubsetPair, eml_pair_values
from dgspec.reports import BoundOnlyReport, GenerateReport, PairBoundReport
from dgspec.toughness import BoundComparison, ToughnessResult

from oracles import indices_of


@pytest.fixture(scope="module")
def chord_reports():
    g = chord_cycle(3)
    profile = spectral_profile(g)
    cmp = compare_bounds(exact_toughness(g), profile)
    return {
        "analysis": analysis_report(g, profile),
        "eml": verify_eml(profile),
        "exact": exact_toughness(g),
        "compare": cmp,
        "bound": BoundOnlyReport(value=-0.25),
        "pair": PairBoundReport(u=(0,), w=(1, 2), lhs=0.4, bound=0.8,
                                bound_simple=1.2, slack=0.4, slack_simple=0.8),
        "generate": GenerateReport(family="chord_cycle", params=(("n", 3),),
                                   path="out.txt", n=3, edge_count=4),
    }


@pytest.fixture(scope="module")
def schema():
    with resources.files("dgspec").joinpath("schema.json").open() as fh:
        return json.load(fh)


def json_form(x):
    """A field's value as ``json.loads`` must give it back from the payload."""
    if isinstance(x, float):
        return {math.inf: "infinite", -math.inf: "-infinite"}.get(x, float(x))
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, SubsetPair):
        return {"u": list(x.u), "w": list(x.w)}
    if isinstance(x, tuple):
        return [json_form(v) for v in x]
    return x


def assert_same(got, want):
    """Equal, and of the same JSON type all the way down (1 is not 1.0 or True)."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    else:
        assert got == want, (got, want)


def assert_payload_holds(report, payload):
    """Each field of ``report`` with its exact value under its own name: in
    its group for the analysis report, the comparison's exact result under
    "exact", generator params as an object."""
    for f in fields(report):
        value = getattr(report, f.name)
        where = payload[f.metadata["group"]] if "group" in f.metadata else payload
        if f.name == "exact":
            assert_payload_holds(value, where["exact"])
        elif f.name == "params":
            assert_same(where["params"], dict(value))
        else:
            assert_same(where[f.name], json_form(value))


class TestJsonRoundTrip:
    @pytest.mark.parametrize("key", ["analysis", "eml", "exact", "compare",
                                     "bound", "pair", "generate"])
    def test_parse_inverts_serialize(self, chord_reports, key):
        # json.loads of the payload gives back every field of the report;
        # TestSchema validates the same payloads
        report = chord_reports[key]
        assert_payload_holds(report, json.loads(to_json(report)))

    def test_infinite_serialized_as_string(self, schema):
        result = exact_toughness(complete_bidirected(3))
        payload = json.loads(to_json(result))
        assert payload["value"] == "infinite"
        assert payload["witness"] is None
        assert payload["component_count"] is None
        finite = ToughnessResult(value=1.5, witness=(0, 2), component_count=2)
        cmp = BoundComparison(exact=finite, spectral_bound=math.inf, gap=-math.inf,
                              holds=False, note="bound is infinite")
        payload = json.loads(to_json(cmp))
        jsonschema.validate(payload, schema)
        assert (payload["spectral_bound"], payload["gap"]) == ("infinite", "-infinite")
        assert payload["exact"] == {"value": 1.5, "witness": [0, 2],
                                    "component_count": 2}

    def test_floats_round_trip_exactly(self, chord_reports):
        report = chord_reports["analysis"]
        spectral = json.loads(to_json(report))["spectral"]
        assert spectral["rho"] == report.rho
        assert [complex(z["re"], z["im"]) for z in spectral["eigenvalues"]] == list(
            report.eigenvalues)
        assert spectral["pi"] == list(report.pi)

    def test_json_is_stable_across_calls(self, chord_reports):
        report = chord_reports["analysis"]
        assert to_json(report) == to_json(report)


class TestSchema:
    @pytest.mark.parametrize("key", ["analysis", "eml", "exact", "compare",
                                     "bound", "pair", "generate"])
    def test_reports_validate(self, chord_reports, schema, key):
        payload = json.loads(to_json(chord_reports[key]))
        jsonschema.validate(payload, schema)

    def test_schema_rejects_malformed(self, schema):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"report": "analysis"}, schema)

    def test_infinite_value_validates(self, schema):
        payload = json.loads(to_json(exact_toughness(complete_bidirected(3))))
        jsonschema.validate(payload, schema)


class TestTextAndCsv:
    @pytest.mark.parametrize("fmt", ["yaml", "JSON", "tsv"])
    def test_unknown_format_is_precondition(self, chord_reports, fmt):
        with pytest.raises(PreconditionError):
            render(chord_reports["pair"], fmt)

    def test_text_seven_digits(self, chord_reports):
        text = render(chord_reports["analysis"], "text")
        assert "rho        = 0.7071068" in text
        assert "pi         = [0.4, 0.2, 0.4]" in text

    def test_text_verbose_adds_diagnostics(self, chord_reports):
        quiet = render(chord_reports["eml"], "text", verbosity=0)
        loud = render(chord_reports["eml"], "text", verbosity=1)
        assert "bound_gap_min" not in quiet
        assert "bound_gap_min" in loud

    def test_text_infinite(self):
        text = render(exact_toughness(complete_bidirected(3)), "text")
        assert "infinite" in text

    def test_csv_analysis_columns(self, chord_reports):
        lines = render(chord_reports["analysis"], "csv").splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["n", "edge_count", "strongly_connected", "period",
                              "rho"]
        assert "eig0_re" in header
        assert "pi2" in header
        assert len(lines) == 2

    def test_csv_eml_columns(self, chord_reports):
        header = render(chord_reports["eml"], "csv").splitlines()[0].split(",")
        assert header[0] == "n"
        assert "max_violation" in header
        assert header[-1] == "passed"

    def test_csv_compare(self, chord_reports):
        out = render(chord_reports["compare"], "csv")
        assert out.splitlines()[0].startswith("exact_value,exact_witness")


@st.composite
def graph_reports(draw):
    """Every report type for one random strongly connected graph, n = 3..8.

    p = 1 gives complete graphs (infinite toughness, None witness); self-loops
    on a complete graph make rho 0, so the bound is infinite with a note."""
    n = draw(st.integers(3, 8))
    p = draw(st.sampled_from([0.3, 0.5, 0.8, 1.0]))
    seed = draw(st.integers(0, 2 ** 16))
    g = random_strongly_connected(n, p, seed=seed)
    if draw(st.booleans()):
        g = graph_from_edges(n, set(g.edges) | {(v, v) for v in range(n)})
    try:
        profile = spectral_profile(g)
    except DgspecError:  # periodic or defective
        assume(False)
    eml = verify_eml(profile, sample=None if n <= 4 else draw(st.integers(1, 40)),
                     seed=seed, nonempty_only=draw(st.booleans()))
    cmp = compare_bounds(exact_toughness(g), profile)
    u, w = (draw(st.integers(0, 2 ** n - 1)) for _ in range(2))
    pair = SubsetPair(indices_of(u), indices_of(w))
    lhs, bound, simple = eml_pair_values(profile, pair)
    return [
        analysis_report(g, profile),
        eml,
        cmp.exact,
        cmp,
        BoundOnlyReport(toughness_spectral_bound(profile)),
        PairBoundReport(u=pair.u, w=pair.w, lhs=lhs, bound=bound,
                        bound_simple=simple, slack=bound - lhs,
                        slack_simple=simple - lhs),
        GenerateReport(family="random_strongly_connected",
                       params=(("n", n), ("p", p), ("seed", seed)),
                       path="g.txt", n=n, edge_count=g.edge_count),
    ]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(reports=graph_reports())
def test_generic_serializers(schema, reports):
    validator = jsonschema.Draft7Validator(schema)
    for report in reports:
        payload = json.loads(to_json(report))
        validator.validate(payload)
        assert_payload_holds(report, payload)
        header, row = csv.reader(render(report, "csv").splitlines())
        assert len(header) == len(row)
