"""The README's Quick start and Library use examples, run as written, so
the documentation cannot drift from the package."""

import re
from pathlib import Path

from dgspec.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def write_quick_start_graph(text: str, directory: Path) -> None:
    """Run the Quick start's ``printf '...' > chord.txt`` in ``directory``."""
    fmt = re.search(r"^\$ printf '([^']*)' > chord\.txt$", text, re.M).group(1)
    (directory / "chord.txt").write_text(fmt.encode().decode("unicode_escape"))


def test_quick_start_analyze_lines_match_the_output(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    write_quick_start_graph(text, tmp_path)
    monkeypatch.chdir(tmp_path)
    # the lines shown under the command, up to the "..." that cuts them off
    shown = re.search(r"^\$ dgspec analyze chord\.txt\n(.*?)^\.\.\.$", text, re.M | re.S)
    assert main(["analyze", "chord.txt"]) == 0
    out = capsys.readouterr().out
    assert shown.group(1).count("\n") >= 6
    assert out.startswith(shown.group(1))


def test_library_use_prints_what_its_comment_says(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    write_quick_start_graph(text, tmp_path)
    monkeypatch.chdir(tmp_path)
    code = re.search(r"^### Library use\n\n```python\n(.*?)^```$", text, re.M | re.S).group(1)
    printed = re.search(r"^print\(.*\)  # (.*)$", code, re.M).group(1)
    assert printed == "0.7071067811865476 True 0.5"
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == printed + "\n"
