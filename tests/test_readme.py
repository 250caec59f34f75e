"""The README's worked example runs as shown: its Shop definition and
Bookshop specification, put through lfc, print every console block's output
and the lines of its emitted JSON sample."""

import shlex
from pathlib import Path

import pytest

from localfeatures.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language=""):
    """The text of each fenced code block of the README in that language."""
    return [block.split("\n", 1)[1].split("\n```", 1)[0]
            for block in README.split("\n```")[1::2]
            if block.split("\n", 1)[0] == language]


def block_starting(prefix, language=""):
    (block,) = [b for b in blocks(language) if b.startswith(prefix)]
    return block


def sessions():
    """(argv, shown output) for each `$ lfc ...` line in a console block."""
    for block in blocks():
        if block.startswith("$ lfc "):
            for session in block.split("\n\n"):
                command, _, shown = session.partition("\n")
                yield shlex.split(command)[2:], shown.rstrip("\n") + "\n"


@pytest.fixture
def shop(tmp_path, monkeypatch):
    """A directory holding the README's shop.spl, bookshop.gis and
    broken.gis, which gives Book the feature Sidebar too."""
    bookshop = block_starting("CREATE ENTITY Book")
    (tmp_path / "shop.spl").write_text(block_starting("VIEWPOINT"), encoding="utf-8")
    (tmp_path / "bookshop.gis").write_text(bookshop, encoding="utf-8")
    assert bookshop.count("WITH FEATURES (Grid)") == 1
    (tmp_path / "broken.gis").write_text(
        bookshop.replace("WITH FEATURES (Grid)", "WITH FEATURES (Grid, Sidebar)"),
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


SESSIONS = list(sessions())


def test_the_readme_shows_a_session_of_each_command():
    assert [argv[0] for argv, _ in SESSIONS] == [
        "check", "explain", "explain", "enumerate", "emit"]


@pytest.mark.parametrize("argv, shown", SESSIONS,
                         ids=[" ".join(argv) for argv, _ in SESSIONS])
def test_each_console_session_prints_what_the_readme_shows(shop, capsys, argv, shown):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert err + out == shown  # diagnostics come before any result
    assert rc == (1 if err else 0)


def test_emit_writes_every_line_of_the_json_sample_in_order(shop, capsys):
    assert main(["emit", "bookshop.gis", "--spl", "shop.spl"]) == 0
    emitted = iter((shop / "Bookshop.derivation.json").read_text(encoding="utf-8").splitlines())
    shown = [line for line in block_starting("{", "json").splitlines() if line.strip() != "..."]
    # `in` advances the iterator past the match, so each line is sought after the last
    missing = [line for line in shown if line not in emitted]
    assert not missing
