"""Run a fixed corpus of dgspec CLI invocations on one or two source trees
and report every run whose stdout, stderr or exit code differs.

Usage::

    python tools/cli_corpus.py SRC_A [SRC_B]

SRC is a directory that holds the ``dgspec`` package, such as ``src`` of a
checkout.  With two trees the corpus runs once on each, which checks that a
change keeps the CLI's output byte for byte.  With one tree it runs twice
on it, which checks that the output is deterministic.  Each run of the
corpus is one Python subprocess that imports ``dgspec`` from its tree and
calls ``dgspec.cli.main(argv)`` for every invocation, capturing stdout,
stderr and the exit code (argparse's usage errors and ``--help`` included)
and, for ``generate``, the bytes of the written file.  The input graphs are
written by this script, not by either tree, into one temporary directory
that both runs share, so paths in the output agree.

The corpus covers every command in text, json, csv and text with ``-v``:
exhaustive, ``--nonempty-only`` and ``--sample`` sweeps (n = 12 and 13
included, where the exhaustive search does the most work), ``eml bound``
on indices, labels and numeric labels that differ from the indices, all
three toughness modes (``toughness exact`` and ``compare`` also on an
undirected 20-cycle and on a dense random graph at n = 18, p = 0.6, where
the enumeration does the most work), ``generate`` for every family (with
chords, seeds and bad parameters), usage errors and ``--help``; and the
failures: a periodic directed C8 (exit 3), ``de_bruijn(2, 3)`` (exit 4), a
sink, a malformed and a missing file.

Exit status: 0 when every run agrees, 1 when some run differs, 2 when the
corpus could not run.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

FORMATS = (["--format", "text"], ["--format", "json"], ["--format", "csv"], ["-v"])


def _bidirected(edges):
    return sorted({(t, h) for a, b in edges for t, h in ((a, b), (b, a))})


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _petersen():
    outer = _cycle(5)
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _bidirected(outer + spokes + inner)


def _de_bruijn(symbols, word_len):
    n = symbols ** word_len
    return [(u, (u * symbols) % n + b) for u in range(n) for b in range(symbols)]


def _random_strong(n, p, seed):
    """A directed Hamiltonian cycle in shuffled order plus each other arc with
    probability p: strongly connected, and almost always aperiodic."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    arcs |= {(t, h) for t in range(n) for h in range(n) if rng.random() < p}
    return sorted(arcs)


def _edge_text(edges, names=None):
    name = (lambda v: str(v)) if names is None else names.__getitem__
    return "".join(f"{name(t)} {name(h)}\n" for t, h in edges)


def _graphs() -> dict[str, str]:
    """Edge-list texts by file stem."""
    perm = [7, 2, 9, 0, 5, 3, 8, 1, 6, 4]
    return {
        "chord3": "a b\nb c\nc a\na c\n",
        "relabeled": "1 0\n0 1\n0 0\n",
        "commented": "# a 4-cycle with a chord\n\n0 1\n  1 2\n2 3\n3 0\n# end\n1 3\n",
        "k4": _edge_text(_bidirected((i, j) for i in range(4) for j in range(i))),
        "k5_loops": _edge_text([(i, j) for i in range(5) for j in range(5)]),
        "cycle5": _edge_text(_bidirected(_cycle(5))),
        "petersen": _edge_text(_petersen()),
        "petersen_relabeled": _edge_text(_petersen()[::-1], perm),
        "chord12": _edge_text(_cycle(12) + [(0, 2)]),
        "cycle13": _edge_text(_bidirected(_cycle(13))),
        "chord65": _edge_text(_cycle(65) + [(0, 2)]),
        **{f"random{n}": _edge_text(_random_strong(n, p, seed))
           for n, p, seed in ((8, 0.3, 1), (11, 0.25, 2), (16, 0.2, 3),
                              (40, 0.1, 4), (90, 0.05, 5), (150, 0.03, 6))},
        "cycle20": _edge_text(_bidirected(_cycle(20))),
        "dense18": _edge_text(_random_strong(18, 0.6, 7)),
        "de_bruijn_2_3": _edge_text(_de_bruijn(2, 3)),
        "directed_c8": _edge_text(_cycle(8)),
        "sink": "a b\nb c\nc a\nc d\n",
        "malformed": "a b c\n",
    }


# graphs that only exact toughness runs on: a long cycle, whose search
# counts only its independent sets, and a dense graph with no small
# forbidden patterns, whose sizes hold up to C(18, 9) removal sets
TOUGHNESS_ONLY = ("cycle20", "dense18")


def _corpus(workdir: Path) -> list[list[str]]:
    """Every argv of the corpus, over the graph files in ``workdir``."""
    files = [str(workdir / f"{stem}.txt") for stem in _graphs() if stem not in TOUGHNESS_ONLY]
    files.append(str(workdir / "missing.txt"))
    commands = [  # (command, options): the file goes between them
        (["analyze"], []),
        (["eml", "verify"], []),
        (["eml", "verify"], ["--nonempty-only"]),
        (["eml", "verify"], ["--sample", "400", "--seed", "1"]),
        (["eml", "verify"], ["--sample", "300", "--nonempty-only", "--seed", "2"]),
        (["eml", "bound"], ["--u", "0", "--w", "1,2"]),
        (["eml", "bound"], ["--u", "2,0,0", "--w", ""]),
        (["toughness", "exact"], []),
        (["toughness", "bound"], []),
        (["toughness", "compare"], []),
    ]
    runs = [command + [path] + options + fmt
            for path in files for command, options in commands for fmt in FORMATS]
    chord, relabeled = files[0], files[1]
    runs += [["eml", "bound", chord, "--u", "a", "--w", "b,c"] + fmt for fmt in FORMATS]
    runs += [
        ["eml", "bound", relabeled, "--u", "0", "--w", "1"],
        ["eml", "bound", relabeled, "--u", "1,0", "--w", "0"],
        ["eml", "bound", relabeled, "--u", "2", "--w", "0"],
        ["eml", "bound", chord, "--u", "zz", "--w", "b"],
        ["eml", "bound", chord, "--u", "-1", "--w", "b"],
        ["eml", "verify", chord, "--sample", "0"],
        ["eml", "verify", chord, "--sample", "-3"],
        ["eml", "verify", str(workdir / "random40.txt"), "--sample", "200", "--seed", "-1"],
        ["toughness", "exact", str(workdir / "random16.txt"), "--allow-large"],
    ]
    runs += [["toughness", mode, str(workdir / f"{stem}.txt")] + fmt
             for stem in TOUGHNESS_ONLY for mode in ("exact", "compare") for fmt in FORMATS]
    out = workdir / "generated"
    generate = [
        ["complete_bidirected", "4"], ["undirected_cycle", "5"], ["petersen"],
        ["de_bruijn", "2", "3"], ["chord_cycle", "12"], ["chord_cycle", "6", "0:2", "1:4"],
        ["random_strongly_connected", "10", "0.3", "--seed", "3"],
        ["random_strongly_connected", "12", "0.35"],
        ["chord_cycle", "6", "0-2"], ["petersen", "3"], ["de_bruijn", "2"],
        ["undirected_cycle", "x"], ["random_strongly_connected", "10", "0.3", "--seed", "-1"],
    ]
    for i, params in enumerate(generate):
        for fmt in FORMATS[:3]:
            runs.append(["generate", *params, "-o", str(out / f"g{i}.txt"), *fmt])
    runs.append(["generate", "petersen", "-o", str(workdir / "no" / "such" / "dir.txt")])
    runs += [
        [], ["--help"], ["bogus"], ["analyze"], ["analyze", "--help"], ["eml"],
        ["eml", "--help"], ["eml", "verify", "--help"], ["eml", "bound", "--help"],
        ["eml", "bound", chord], ["toughness", "--help"], ["toughness", "bogus", chord],
        ["generate", "--help"], ["generate", "nosuch", "-o", str(out / "x.txt")],
        ["analyze", chord, "--format", "xml"], ["analyze", chord, "--seed", "x"],
        ["analyze", chord, "--eig-tol", "1e-3"], ["eml", "verify", chord, "--slack-tol", "1"],
        ["analyze", chord, "--cluster-tol", "0.03"], ["--version"],
    ]
    return runs


def _run_tree(src: str, workdir: str, result_path: str) -> None:
    """Run the corpus on the dgspec under ``src`` and write the outcomes as
    JSON to ``result_path``."""
    sys.path.insert(0, src)
    import dgspec.cli

    where = Path(dgspec.cli.__file__).resolve().parent
    if where != (Path(src) / "dgspec").resolve():
        sys.exit(f"imported dgspec from {where}, not from {src}")
    outcomes = []
    for argv in _corpus(Path(workdir)):
        target = Path(argv[argv.index("-o") + 1]) if "-o" in argv else None
        if target is not None and target.exists():
            target.unlink()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = dgspec.cli.main(argv)
            except SystemExit as exc:  # argparse exits from inside main
                code = exc.code
            except Exception as exc:  # a crash is an outcome to compare too
                last = traceback.extract_tb(exc.__traceback__)[-1]
                code = (f"raised {type(exc).__name__}: {exc} "
                        f"(at {Path(last.filename).name}:{last.lineno})")
        written = target.read_text() if target is not None and target.exists() else None
        outcomes.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                         "stderr": err.getvalue(), "file": written})
    Path(result_path).write_text(json.dumps(outcomes))


def _diff(name: str, a, b) -> list[str]:
    if isinstance(a, str) and isinstance(b, str):
        lines = difflib.unified_diff(a.splitlines(), b.splitlines(), "A", "B", lineterm="", n=1)
        return [f"  {name}:"] + [f"    {line}" for line in list(lines)[:24]]
    return [f"  {name}: {a!r} != {b!r}"]


def main(argv: list[str]) -> int:
    if argv[:1] == ["--run-tree"] and len(argv) == 4:
        _run_tree(*argv[1:])
        return 0
    if not 1 <= len(argv) <= 2 or any(a.startswith("-") for a in argv):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    trees = argv if len(argv) == 2 else argv * 2
    for src in trees:
        if not (Path(src) / "dgspec" / "cli.py").is_file():
            print(f"cli_corpus: no dgspec package under {src}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="dgspec-corpus-") as tmp:
        workdir = Path(tmp)
        (workdir / "generated").mkdir()
        for stem, text in _graphs().items():
            (workdir / f"{stem}.txt").write_text(text)
        results = []
        for i, src in enumerate(trees):
            result_path = workdir / f"outcomes{i}.json"
            child = [sys.executable, os.path.abspath(__file__), "--run-tree",
                     os.path.abspath(src), tmp, str(result_path)]
            proc = subprocess.run(child, cwd=tmp, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"cli_corpus: the run on {src} failed (exit {proc.returncode}):\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 2
            results.append(json.loads(result_path.read_text()))
    differing = 0
    for a, b in zip(*results):
        keys = [k for k in ("code", "stdout", "stderr", "file") if a[k] != b[k]]
        if keys:
            differing += 1
            print("differs: dgspec " + " ".join(a["argv"]))
            for key in keys:
                print("\n".join(_diff(key, a[key], b[key])))
    codes = Counter(str(o["code"]) for o in results[0])
    print(f"{len(results[0])} runs on {' and '.join(trees)}; exit codes "
          + ", ".join(f"{c}: {k}" for c, k in sorted(codes.items()))
          + f"; {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
