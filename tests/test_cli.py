import csv
import functools
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from unittest import mock

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dgspec import graph as graphs
from dgspec import cli, linalg, mixing, parse_edge_list
from dgspec.cli import main

CHORD = "a b\nb c\nc a\na c\n"
PATH = "a b\nb c\n"
CYCLE4 = "0 1\n1 2\n2 3\n3 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def chord_file(tmp_path):
    path = tmp_path / "chord.txt"
    path.write_text(CHORD)
    return str(path)


class TestAnalyze:
    def test_text(self, capsys, chord_file):
        code, out, _ = run(capsys, "analyze", chord_file)
        assert code == 0
        assert "rho        = 0.7071068" in out
        assert "kappa" in out

    def test_json_parses_back(self, capsys, chord_file):
        code, out, _ = run(capsys, "analyze", chord_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["graph"]["n"] == 3
        assert payload["spectral"]["rho"] == pytest.approx(0.7071068, abs=1e-6)

    def test_csv(self, capsys, chord_file):
        code, out, _ = run(capsys, "analyze", chord_file, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("n,edge_count")

    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/graph.txt")
        assert code == 2
        assert "parse error" in err

    def test_malformed_file(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("a b c\n")
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 2

    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path):
        p = tmp_path / "latin1.txt"
        p.write_bytes("a b\nb \u00e9\n\u00e9 a\n".encode("latin-1"))
        code, out, err = run(capsys, "analyze", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("dgspec: parse error:") and "UTF-8" in err
        assert "Traceback" not in err

    def test_zero_outdegree_is_precondition(self, capsys, tmp_path):
        p = tmp_path / "path.txt"
        p.write_text(PATH)
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 3
        assert "outdegree 0" in err

    def test_periodic_is_precondition(self, capsys, tmp_path):
        p = tmp_path / "c4.txt"
        p.write_text(CYCLE4)
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 3

    def test_defective_is_numerical(self, capsys, tmp_path):
        out_file = tmp_path / "db.txt"
        run(capsys, "generate", "de_bruijn", "2", "2", "-o", str(out_file))
        code, _, err = run(capsys, "analyze", str(out_file))
        assert code == 4
        assert "diagonalizable" in err

    @pytest.mark.parametrize("params", [("15", "0.2", "82"), ("20", "0.15", "319")],
                             ids=["15-0.2-82", "20-0.15-319"])
    def test_cluster_near_real_axis_is_numerical(self, capsys, tmp_path, params):
        # a triple eigenvalue cluster near 0 whose mean lies just below the
        # real axis, within tolerance of its own conjugate; the graph is
        # defective, and every command that builds a profile exits 4
        n, p, seed = params
        path = str(tmp_path / "g.txt")
        run(capsys, "generate", "random_strongly_connected", n, p, "--seed", seed,
            "-o", path)
        # n > 13, so an exhaustive eml verify would stop at the cap (exit 3)
        # before it builds the profile; a sampled one builds it
        for argv in (["analyze"], ["eml", "verify", "--sample", "50"],
                     ["toughness", "bound"], ["eml", "bound", "--u", "0", "--w", "1"]):
            code, out, err = run(capsys, *argv, path)
            assert code == 4, argv
            assert out == ""
            assert "diagonalizable" in err and "Traceback" not in err

    def test_cluster_radius_env_is_ignored(self, capsys, tmp_path, monkeypatch):
        # the clustering radius is a solver constant: a radius of 0.03 would
        # merge clusters of this graph and fail the residual gate
        path = str(tmp_path / "g.txt")
        run(capsys, "generate", "random_strongly_connected", "40", "0.3", "--seed", "1",
            "-o", path)
        plain = run(capsys, "analyze", path)
        assert plain[0] == 0
        monkeypatch.setenv("DGSPEC_CLUSTER_TOL", "0.03")
        assert run(capsys, "analyze", path) == plain


class TestEml:
    def test_verify_pass(self, capsys, chord_file):
        code, out, _ = run(capsys, "eml", "verify", chord_file)
        assert code == 0
        assert "PASS" in out
        assert "pairs=64" in out

    def test_verify_json(self, capsys, chord_file):
        code, out, _ = run(capsys, "eml", "verify", chord_file, "--format", "json")
        payload = json.loads(out)
        assert payload["pair_count"] == 64
        assert payload["passed"] is True

    def test_cap_without_sample(self, capsys, tmp_path):
        out_file = tmp_path / "big.txt"
        run(capsys, "generate", "chord_cycle", "14", "-o", str(out_file))
        # the cap needs only n, so it is checked before the profile is built
        with mock.patch("dgspec.cli.spectral_profile") as profile:
            code, _, err = run(capsys, "eml", "verify", str(out_file))
        assert code == 3
        assert "cap" in err
        profile.assert_not_called()

    def test_sample_deterministic(self, capsys, tmp_path):
        out_file = tmp_path / "big.txt"
        run(capsys, "generate", "chord_cycle", "14", "-o", str(out_file))
        outputs = set()
        for _ in range(3):
            code, out, _ = run(capsys, "eml", "verify", str(out_file),
                               "--sample", "200", "--seed", "7",
                               "--format", "json")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_sample_beyond_64_vertices(self, capsys, tmp_path, schema):
        out_file = tmp_path / "r72.txt"
        run(capsys, "generate", "random_strongly_connected", "72", "0.1",
            "--seed", "5", "-o", str(out_file))
        code, out, err = run(capsys, "eml", "verify", str(out_file),
                             "--sample", "500", "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert (payload["n"], payload["pair_count"]) == (72, 500)
        worst = payload["worst_pair"]
        assert max(worst["u"] + worst["w"]) >= 64
        for indices in worst.values():
            assert indices == sorted(set(indices)) and max(indices, default=0) < 72
        # the text of the same run names the same pair
        code, out, _ = run(capsys, "eml", "verify", str(out_file), "--sample", "500")
        assert code == 0
        u, w = (",".join(map(str, worst[k])) or "-" for k in ("u", "w"))
        assert f"worst_pair       = U={{{u}}} W={{{w}}}" in out.splitlines()

    def test_zero_max_violation_is_unsigned(self, capsys, tmp_path):
        # the empty pair is the worst pair of chord_cycle(12): its slack is
        # exactly 0, which must not print as -0
        path = tmp_path / "chord12.txt"
        run(capsys, "generate", "chord_cycle", "12", "-o", str(path))
        outputs = {fmt: run(capsys, "eml", "verify", str(path), "--format", fmt)
                   for fmt in ("json", "text", "csv")}
        assert {code for code, _, _ in outputs.values()} == {0}
        assert '  "max_violation": 0.0,' in outputs["json"][1].splitlines()
        assert "max_violation    = 0 (tolerance 1e-09) -> PASS" in outputs["text"][1]
        assert next(csv.DictReader(io.StringIO(outputs["csv"][1])))["max_violation"] == "0.0"

    def test_nonempty_only(self, capsys, chord_file):
        code, out, _ = run(capsys, "eml", "verify", chord_file,
                           "--nonempty-only", "--format", "json")
        assert json.loads(out)["pair_count"] == 49

    def test_violation_exits_one(self, capsys, tmp_path, monkeypatch):
        # roundoff slack (~1e-16) exceeds an absurdly tight tolerance,
        # exercising the FAIL exit without any doctored numbers
        p = tmp_path / "k3.txt"
        p.write_text("a b\nb a\nb c\nc b\na c\nc a\n")
        monkeypatch.setattr(mixing, "SLACK_TOL", 1e-30)
        code, out, _ = run(capsys, "eml", "verify", str(p))
        assert code == 1
        assert "FAIL" in out

    def test_bound_with_labels(self, capsys, chord_file):
        code, out, _ = run(capsys, "eml", "bound", chord_file,
                           "--u", "a", "--w", "b,c", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["u"] == [0]
        assert payload["w"] == [1, 2]
        assert payload["lhs"] == pytest.approx(0.4, abs=1e-10)

    def test_bound_with_indices(self, capsys, chord_file):
        code, out, _ = run(capsys, "eml", "bound", chord_file,
                           "--u", "0", "--w", "1,2", "--format", "json")
        assert json.loads(out)["lhs"] == pytest.approx(0.4, abs=1e-10)

    def test_numeric_labels_resolve_before_indices(self, capsys, tmp_path):
        # token "1" appears first, so it is vertex 0 and token "0" is vertex 1;
        # every output prints the indices
        p = tmp_path / "relabeled.txt"
        p.write_text("1 0\n0 1\n0 0\n")
        code, out, _ = run(capsys, "eml", "bound", str(p), "--u", "0", "--w", "1")
        assert code == 0
        assert out.splitlines()[0] == "U = {1}  W = {0}"

    def test_bound_sorts_and_deduplicates(self, capsys, chord_file):
        code, out, _ = run(capsys, "eml", "bound", chord_file, "--u", "2,a,0",
                           "--w", "c,1,b", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["u"], payload["w"]) == ([0, 2], [1, 2])

    def test_bound_evaluates_the_pair_once(self, capsys, chord_file, monkeypatch):
        calls = []
        kernel = mixing.eml_kernel

        def counting_kernel(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(mixing, "eml_kernel", counting_kernel)
        code, _, _ = run(capsys, "eml", "bound", chord_file, "--u", "a", "--w", "b,c")
        assert code == 0
        assert len(calls) == 1

    def test_bound_unknown_vertex(self, capsys, chord_file):
        code, _, err = run(capsys, "eml", "bound", chord_file,
                           "--u", "zz", "--w", "b")
        assert code == 3


class TestToughness:
    def test_exact_json(self, capsys, chord_file):
        code, out, _ = run(capsys, "toughness", "exact", chord_file,
                           "--format", "json")
        payload = json.loads(out)
        assert payload["value"] == 0.5
        assert payload["witness"] == [0]

    def test_infinite_serialization(self, capsys, tmp_path):
        out_file = tmp_path / "k4.txt"
        run(capsys, "generate", "complete_bidirected", "4", "-o", str(out_file))
        code, out, _ = run(capsys, "toughness", "exact", str(out_file),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == "infinite"

    def test_bound_mode(self, capsys, chord_file):
        code, out, _ = run(capsys, "toughness", "bound", chord_file,
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["mode"] == "bound"

    def test_compare_exits_zero(self, capsys, chord_file):
        code, out, _ = run(capsys, "toughness", "compare", chord_file,
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"]["value"] == 0.5
        assert isinstance(payload["holds"], bool)

    @pytest.mark.parametrize("mode", ["exact", "compare"])
    def test_graph_structure_is_built_once(self, capsys, chord_file, mode):
        # the connectivity checks, pi and the enumeration all read the
        # graph's neighbour masks and levels, so each is built once per command
        builds = {"neighbour_masks": 0, "_strong_levels": 0}

        def counted(name):
            real = vars(graphs.DirectedGraph)[name].func

            def build(g):
                builds[name] += 1
                return real(g)

            prop = functools.cached_property(build)
            prop.__set_name__(graphs.DirectedGraph, name)
            return mock.patch.object(graphs.DirectedGraph, name, prop)

        with counted("neighbour_masks"), counted("_strong_levels"):
            code, out, _ = run(capsys, "toughness", mode, chord_file, "--format", "json")
        assert code == 0 and "0.5" in out
        assert builds == {"neighbour_masks": 1, "_strong_levels": 1}

    @pytest.mark.parametrize("mode", ["bound", "compare"])
    def test_residual_gate_is_numerical(self, capsys, chord_file, monkeypatch, mode):
        # the roundoff residual (~5e-16) exceeds an absurdly tight gate
        monkeypatch.setattr(linalg, "RESIDUAL_TOL", 1e-30)
        code, out, err = run(capsys, "toughness", mode, chord_file)
        assert (code, out) == (4, "")
        assert "residual" in err

    @pytest.mark.parametrize("word_len,code,message", [
        (4, 4, "diagonalizable"), (5, 3, "enumeration cap")], ids=["defective", "over_cap"])
    def test_compare_fails_before_the_enumeration(self, capsys, tmp_path, monkeypatch,
                                                  word_len, code, message):
        # de_bruijn(2, 4) is defective; de_bruijn(2, 5) is also past the cap
        path = str(tmp_path / "db.txt")
        run(capsys, "generate", "de_bruijn", "2", str(word_len), "-o", path)
        monkeypatch.setattr(cli, "exact_toughness", mock.Mock(side_effect=AssertionError))
        got, out, err = run(capsys, "toughness", "compare", path)
        assert (got, out) == (code, "")
        assert message in err and "Traceback" not in err


class TestEnumerationCap:
    @staticmethod
    def cycle_file(tmp_path, n):
        # the undirected n-cycle, arcs i -> i + 1 first, so vertex i gets index i
        arcs = [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
        path = tmp_path / f"cycle{n}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in arcs))
        return str(path)

    @pytest.mark.parametrize("n", [21, 22])
    def test_exact_up_to_the_cap(self, capsys, tmp_path, n):
        code, out, _ = run(capsys, "toughness", "exact", self.cycle_file(tmp_path, n),
                           "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["value"], payload["witness"], payload["component_count"]) == \
            (1.0, [0, 2], 2)

    def test_past_the_cap_is_precondition(self, capsys, tmp_path):
        code, out, err = run(capsys, "toughness", "exact", self.cycle_file(tmp_path, 23))
        assert (code, out) == (3, "")
        assert "enumeration cap 22" in err

    def test_allow_large_past_the_cap(self, capsys, tmp_path):
        # removing vertex 0 leaves 22 singletons: the search stops at size 2
        path = str(tmp_path / "chord23.txt")
        run(capsys, "generate", "chord_cycle", "23", "-o", path)
        code, out, _ = run(capsys, "toughness", "exact", path, "--allow-large",
                           "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["value"], payload["witness"], payload["component_count"]) == \
            (1 / 22, [0], 22)


class TestGenerate:
    def test_writes_canonical_file(self, capsys, tmp_path):
        out_file = tmp_path / "c5.txt"
        code, out, _ = run(capsys, "generate", "undirected_cycle", "5",
                           "-o", str(out_file))
        assert code == 0
        g = parse_edge_list(out_file.read_text())
        assert g.edge_count == 10

    def test_identical_bytes_across_runs(self, capsys, tmp_path):
        blobs = set()
        for i in range(3):
            out_file = tmp_path / f"r{i}.txt"
            code, _, _ = run(capsys, "generate", "random_strongly_connected",
                             "8", "0.3", "--seed", "42", "-o", str(out_file))
            assert code == 0
            blobs.add(out_file.read_bytes())
        assert len(blobs) == 1

    def test_seed_changes_output(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "generate", "random_strongly_connected", "8", "0.3",
            "--seed", "1", "-o", str(f1))
        run(capsys, "generate", "random_strongly_connected", "8", "0.3",
            "--seed", "2", "-o", str(f2))
        assert f1.read_bytes() != f2.read_bytes()

    def test_de_bruijn_file(self, capsys, tmp_path):
        out_file = tmp_path / "db.txt"
        code, out, _ = run(capsys, "generate", "de_bruijn", "2", "2",
                           "-o", str(out_file))
        assert code == 0
        assert len(out_file.read_text().splitlines()) == 8

    def test_chord_params(self, capsys, tmp_path):
        out_file = tmp_path / "cc.txt"
        code, _, _ = run(capsys, "generate", "chord_cycle", "6", "0:3", "2:5",
                         "-o", str(out_file))
        assert code == 0
        g = parse_edge_list(out_file.read_text())
        assert g.edge_count == 8

    def test_missing_params(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "de_bruijn", "2",
                           "-o", str(tmp_path / "x.txt"))
        assert code == 3
        assert "needs parameters" in err

    def test_bad_param_value(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "undirected_cycle", "five",
                           "-o", str(tmp_path / "x.txt"))
        assert code == 3

    @pytest.mark.parametrize("out", ["", "/nonexistent/x.txt", "{tmp}"])
    def test_unwritable_output_is_precondition(self, capsys, tmp_path, out):
        out = out.format(tmp=tmp_path)
        code, stdout, err = run(capsys, "generate", "petersen", "-o", out)
        assert (code, stdout) == (3, "")
        assert err.startswith(f"dgspec: cannot write {out}: ")
        assert "Traceback" not in err

    def test_json_confirmation(self, capsys, tmp_path):
        out_file = tmp_path / "p.txt"
        code, out, _ = run(capsys, "generate", "petersen",
                           "-o", str(out_file), "--format", "json")
        payload = json.loads(out)
        assert payload["report"] == "generate"
        assert payload["n"] == 10


@pytest.mark.parametrize("command", [
    ("eml", "verify", "{graph}", "--sample", "10"),
    ("generate", "random_strongly_connected", "8", "0.3", "-o", "{out}"),
], ids=["eml_verify", "generate"])
def test_negative_seed_is_precondition(capsys, chord_file, tmp_path, command):
    argv = [a.format(graph=chord_file, out=tmp_path / "r.txt") for a in command]
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 3
    assert out == ""
    assert err == "dgspec: seed must be nonnegative, got -1\n"


# Variables the CLI once read as overrides of its defaults.
STRAY_ENV = {"DGSPEC_FORMAT": "json", "DGSPEC_SEED": "42",
             "DGSPEC_SLACK_TOL": "1e9", "DGSPEC_EIG_TOL": "1e-30"}


@pytest.mark.parametrize("command", [
    ("analyze", "{graph}"),
    ("eml", "verify", "{graph}", "--sample", "50"),
    ("toughness", "compare", "{graph}"),
    ("generate", "random_strongly_connected", "8", "0.3", "-o", "{out}"),
], ids=["analyze", "eml_verify", "toughness_compare", "generate"])
def test_environment_is_ignored(capsys, chord_file, tmp_path, monkeypatch, command):
    argv = [a.format(graph=chord_file, out=tmp_path / "r.txt") for a in command]
    plain = run(capsys, *argv)
    written = (tmp_path / "r.txt").read_bytes() if argv[0] == "generate" else None
    assert plain[0] == 0
    for name, value in STRAY_ENV.items():
        monkeypatch.setenv(name, value)
    assert run(capsys, *argv) == plain
    if written is not None:
        assert (tmp_path / "r.txt").read_bytes() == written


@pytest.fixture(scope="module")
def schema():
    with resources.files("dgspec").joinpath("schema.json").open() as fh:
        return json.load(fh)


JSON_COMMANDS = {
    "analyze": ("analyze", "{graph}"),
    "eml_verify": ("eml", "verify", "{graph}"),
    "eml_verify_nonempty": ("eml", "verify", "{graph}", "--nonempty-only"),
    "eml_verify_sample": ("eml", "verify", "{graph}", "--sample", "50", "--seed", "4"),
    "eml_bound": ("eml", "bound", "{graph}", "--u", "a", "--w", "b,c"),
    "toughness_exact": ("toughness", "exact", "{graph}"),
    "toughness_bound": ("toughness", "bound", "{graph}"),
    "toughness_compare": ("toughness", "compare", "{graph}"),
    "generate": ("generate", "chord_cycle", "6", "0:3", "-o", "{out}"),
}


def json_of(capsys, chord_file, tmp_path, name):
    argv = [a.format(graph=chord_file, out=tmp_path / "r.txt")
            for a in JSON_COMMANDS[name]]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    return json.loads(out)


@pytest.mark.parametrize("name", JSON_COMMANDS)
def test_json_of_every_command_validates(capsys, chord_file, tmp_path, schema, name):
    jsonschema.validate(json_of(capsys, chord_file, tmp_path, name), schema)


@pytest.mark.parametrize("name,key", [("eml_verify", "rows"), ("eml_verify_sample", "rows"),
                                      ("eml_verify", "stmt_min_slack"),
                                      ("eml_verify_sample", "stmt_min_slack"),
                                      ("eml_verify", "mean_slack"),
                                      ("eml_verify_sample", "mean_slack"),
                                      ("analyze", "eml"), ("analyze", "toughness")])
def test_schema_rejects_keys_no_command_fills(capsys, chord_file, tmp_path, schema,
                                              name, key):
    payload = json_of(capsys, chord_file, tmp_path, name)
    assert key not in payload
    own = {"definitions": schema["definitions"],
           "$ref": "#/definitions/" + payload["report"]}
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate({**payload, key: None}, own)
    assert exc.value.validator == "additionalProperties"


def test_help_ignores_the_environment(capsys, monkeypatch):
    # a malformed value of a variable the CLI once read stops nothing
    monkeypatch.setenv("DGSPEC_SLACK_TOL", "tiny")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dgspec")


def test_threads_is_an_unknown_flag(capsys, chord_file):
    with pytest.raises(SystemExit) as exc:
        main(["toughness", "exact", chord_file, "--threads", "2"])
    assert exc.value.code == 2


def test_cluster_tol_is_an_unknown_flag(capsys, chord_file):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", chord_file, "--cluster-tol", "0.03"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--eig-tol", "--slack-tol"])
def test_tolerance_flags_are_unknown(capsys, chord_file, flag):
    # the residual and slack gates are constants, not settings
    with pytest.raises(SystemExit) as exc:
        main(["eml", "verify", chord_file, flag, "1e-9"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Exit-code fuzzing: every input ends in 0, 1, 2, 3 or 4, and 1 only comes
# from eml verify.  Graphs stay at n <= 10, far below the enumeration caps.
# ---------------------------------------------------------------------------

LABELS = [str(v) for v in range(7)] + ["a", "b", "c"]
ODD_VALUES = ["", " ", "-", "-0", "1e-30", "1e400", "-1e400", "nan", "inf", "-inf",
              "0x10", "abc", "yaml", "a,b", "1,,2", "-1"]
PLAIN_VALUES = ["text", "json", "csv", "1e-9", "1e-6", "0.5", "0", "3", "11", "a", "0,1"]
values = st.one_of(st.sampled_from(PLAIN_VALUES), st.integers(-3, 400).map(str),
                   st.sampled_from(ODD_VALUES),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr))


@st.composite
def edge_list_text(draw):
    """Edge lists on up to 10 vertices, often strongly connected, sometimes
    with duplicate edges or malformed lines."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=10, unique=True))
    edges = []
    if draw(st.booleans()):
        edges += [(labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels))]
    edges += draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
                           max_size=30))
    if draw(st.booleans()):
        edges = list(dict.fromkeys(edges))
    lines = [f"{t} {h}" for t, h in edges]
    lines += draw(st.lists(st.sampled_from(["# comment", "", "a b c", "a"]), max_size=1))
    return "\n".join(draw(st.permutations(lines))).encode()


FLAGS = ["--format", "--slack-tol", "--eig-tol", "--cluster-tol", "--seed",
         "--sample", "--u", "--w", "--threads", "-o"]
SWITCHES = ["-v", "--nonempty-only", "--allow-large", "--help", "--bogus"]


@st.composite
def command_line(draw, graph: str, out: str):
    head = draw(st.sampled_from([
        ["analyze", graph], ["eml", "verify", graph], ["eml", "bound", graph],
        ["toughness", "exact", graph], ["toughness", "bound", graph],
        ["toughness", "compare", graph], ["toughness", "exactly", graph],
        ["generate"], ["eml"], [],
    ]))
    if head == ["generate"]:
        family = draw(st.sampled_from(list(graphs.GENERATOR_FAMILIES) + ["moebius"]))
        params = draw(st.lists(st.one_of(st.integers(-2, 10).map(str),
                                         st.sampled_from(["0.3", "1", "0", "nan", "2",
                                                          "1:3", "0:2", "x"])),
                               max_size=3))
        head = ["generate", family, *params, "-o", out]
    if head == ["eml", "bound", graph] and draw(st.booleans()):
        head += ["--u", draw(values), "--w", draw(values)]
    tail = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            tail.append(draw(st.sampled_from(SWITCHES)))
        else:
            tail += [draw(st.sampled_from(FLAGS)), draw(values)]
    return head + tail


ENV_NAMES = ["FORMAT", "SLACK_TOL", "EIG_TOL", "CLUSTER_TOL", "SEED", "THREADS"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data(),
       content=st.one_of(st.binary(max_size=300), edge_list_text(), edge_list_text()),
       env=st.dictionaries(st.sampled_from(ENV_NAMES), values, max_size=2))
def test_exit_codes_hold_for_any_input(tmp_path, monkeypatch, data, content, env):
    # a drawn relative -o path lands in tmp_path, not the working directory
    monkeypatch.chdir(tmp_path)
    graph = tmp_path / "g.txt"
    graph.write_bytes(content)
    argv = data.draw(command_line(str(graph), str(tmp_path / "out.txt")))
    sink = io.StringIO()
    overrides = {f"DGSPEC_{name}": value for name, value in env.items()}
    with mock.patch.dict(os.environ, overrides), \
            redirect_stdout(sink), redirect_stderr(sink):
        for key in [k for k in os.environ if k.startswith("DGSPEC_")]:
            if key not in overrides:
                del os.environ[key]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2, 3, 4), argv
    if code == 1:
        assert argv[:2] == ["eml", "verify"], argv
