import json
from importlib import resources

import jsonschema
import pytest

from dgspec import parse_edge_list, render, report_from_json
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
        report = report_from_json(out)
        assert report.n == 3
        assert report.rho == pytest.approx(0.7071068, abs=1e-6)

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
        code, _, err = run(capsys, "eml", "verify", str(out_file))
        assert code == 3
        assert "cap" in err

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

    def test_sample_beyond_64_vertices(self, capsys, tmp_path):
        out_file = tmp_path / "r72.txt"
        run(capsys, "generate", "random_strongly_connected", "72", "0.1",
            "--seed", "5", "-o", str(out_file))
        code, out, err = run(capsys, "eml", "verify", str(out_file),
                             "--sample", "500", "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        with resources.files("dgspec").joinpath("schema.json").open() as fh:
            jsonschema.validate(payload, json.load(fh))
        assert (payload["n"], payload["pair_count"]) == (72, 500)
        worst = payload["worst_pair"]
        assert max(worst["u"] + worst["w"]) >= 64
        report = report_from_json(out)
        assert render(report, "json") == out
        assert report.worst_pair.u_indices == tuple(worst["u"])
        assert report.worst_pair.w_indices == tuple(worst["w"])

    def test_nonempty_only(self, capsys, chord_file):
        code, out, _ = run(capsys, "eml", "verify", chord_file,
                           "--nonempty-only", "--format", "json")
        assert json.loads(out)["pair_count"] == 49

    def test_violation_exits_one(self, capsys, tmp_path):
        # roundoff slack (~1e-16) exceeds an absurdly tight tolerance,
        # exercising the FAIL exit without any doctored numbers
        p = tmp_path / "k3.txt"
        p.write_text("a b\nb a\nb c\nc b\na c\nc a\n")
        code, out, _ = run(capsys, "eml", "verify", str(p),
                           "--slack-tol", "1e-30")
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

    def test_json_confirmation(self, capsys, tmp_path):
        out_file = tmp_path / "p.txt"
        code, out, _ = run(capsys, "generate", "petersen",
                           "-o", str(out_file), "--format", "json")
        payload = json.loads(out)
        assert payload["report"] == "generate"
        assert payload["n"] == 10


class TestEnvironmentOverrides:
    def test_format_env(self, capsys, chord_file, monkeypatch):
        monkeypatch.setenv("DGSPEC_FORMAT", "json")
        code, out, _ = run(capsys, "analyze", chord_file)
        assert json.loads(out)["report"] == "analysis"

    def test_flag_beats_env(self, capsys, chord_file, monkeypatch):
        monkeypatch.setenv("DGSPEC_FORMAT", "json")
        code, out, _ = run(capsys, "analyze", chord_file, "--format", "text")
        assert out.startswith("graph:")

    def test_seed_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DGSPEC_SEED", "42")
        f1 = tmp_path / "a.txt"
        run(capsys, "generate", "random_strongly_connected", "8", "0.3",
            "-o", str(f1))
        monkeypatch.undo()
        f2 = tmp_path / "b.txt"
        run(capsys, "generate", "random_strongly_connected", "8", "0.3",
            "--seed", "42", "-o", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("command", [
        ("eml", "verify", "{graph}", "--sample", "10"),
        ("generate", "random_strongly_connected", "8", "0.3", "-o", "{out}"),
    ])
    @pytest.mark.parametrize("via_env", [False, True])
    def test_negative_seed_is_precondition(self, capsys, chord_file, tmp_path,
                                           monkeypatch, command, via_env):
        argv = [a.format(graph=chord_file, out=tmp_path / "r.txt") for a in command]
        if via_env:
            monkeypatch.setenv("DGSPEC_SEED", "-1")
        else:
            argv += ["--seed", "-1"]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "dgspec: seed must be nonnegative, got -1\n"

    def test_bad_env_value(self, capsys, chord_file, monkeypatch):
        monkeypatch.setenv("DGSPEC_SLACK_TOL", "tiny")
        code, _, err = run(capsys, "analyze", chord_file)
        assert code == 3
        assert "DGSPEC_SLACK_TOL" in err
