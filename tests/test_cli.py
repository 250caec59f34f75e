"""The lfc command line: exit codes, diagnostic format, emitted files."""

import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys

import pytest

import localfeatures
from localfeatures import verify_schema
from localfeatures.cli import _color_enabled, main, print_diagnostics
from localfeatures.errors import ParseError
from localfeatures.resolver import Diagnostic
from localfeatures.spldef import MAX_FEATURE_DEPTH

from conftest import FIXTURES
from generators import nested_spl, scale_spec_text

TOY_SPL = """\
FEATUREMODEL R {
    OPTIONAL A
    MANDATORY B XOR {
        C
        D
    }
}
"""

TWIN_BREAK_SPL = """\
VIEWPOINT data (Entity);

FEATUREMODEL G {
    MANDATORY W {
        OPTIONAL A
    }
}

FEATUREMODEL W {
}

LOCAL W APPLIED TO data.Entity;
"""


@pytest.fixture
def files(tmp_path, webeiel_source, gis_spl_source):
    (tmp_path / "webeiel.gis").write_text(webeiel_source, encoding="utf-8")
    (tmp_path / "gis.spl").write_text(gis_spl_source, encoding="utf-8")
    return tmp_path


def write(directory, name, text):
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- check ---------------------------------------------------------------------

def test_check_clean_product(files, capsys):
    rc = main(["check", str(files / "webeiel.gis"), "--spl", str(files / "gis.spl")])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out == "0 errors, 0 warnings\n"
    assert err == ""


def test_check_reports_errors_on_stderr(files, capsys):
    bad = write(files, "bad.gis", "CREATE GIS X WITH FEATURES (Bogus);")
    rc = main(["check", bad, "--spl", str(files / "gis.spl")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == "1 errors, 0 warnings\n"
    assert re.fullmatch(
        r".*bad\.gis:1:\d+: error\[unknown-feature\]: .+\n", err)


def test_check_counts_warnings_without_failing(files, capsys):
    spl = write(files, "warn.spl", (
        "VIEWPOINT data (Entity);\n"
        "FEATUREMODEL G {\n    OPTIONAL W {\n        MANDATORY M\n    }\n}\n"
        "FEATUREMODEL W {\n    MANDATORY M\n}\n"
        "LOCAL W APPLIED TO data.Entity;\n"))
    spec = write(files, "warn.gis", (
        "CREATE ENTITY E (id Long IDENTIFIER) WITH FEATURES ();\n"
        "CREATE GIS X;"))
    rc = main(["check", spec, "--spl", spl])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out == "0 errors, 1 warnings\n"
    assert "warning[invalid-global-default]" in err


def test_check_cites_an_invalid_default_without_defaults_at_the_local_line(files, capsys):
    spl = write(files, "nodef.spl", (
        "VIEWPOINT data (Entity);\n\n"
        "FEATUREMODEL Shop {\n    OPTIONAL Listing {\n        MANDATORY Layout XOR {\n"
        "            Grid\n            List\n        }\n    }\n}\n\n"
        "FEATUREMODEL Listing {\n    MANDATORY Layout XOR {\n"
        "        Grid\n        List\n    }\n}\n\n"
        "LOCAL Listing APPLIED TO data.Entity;\n"))
    spec = write(files, "nodef.gis",
                 "CREATE ENTITY Author (id Long IDENTIFIER);\nCREATE GIS Bookshop;")
    rc = main(["check", spec, "--spl", spl])
    out, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith(f"{spl}:19:1: error[invalid-global-default]: global default for "
                          "local model 'Listing' is invalid (")
    assert err.endswith(") and data.Author fall back to it\n")
    assert out == "1 errors, 0 warnings\n"


@pytest.mark.parametrize("locals_", [("Listing", "Layout"), ("Layout", "Listing")],
                         ids=["Listing-first", "Layout-first"])
def test_check_and_emit_refuse_nested_local_models_that_clash(files, capsys, monkeypatch,
                                                               locals_):
    """Book binds Grid through the first local model and takes List from the
    other's default: two children of one xor group."""
    monkeypatch.chdir(files)
    spl = write(files, "shop.spl", (
        "VIEWPOINT data (Entity);\n\n"
        "FEATUREMODEL Shop {\n    OPTIONAL Listing {\n        MANDATORY Layout XOR {\n"
        "            Grid\n            List\n        }\n    }\n}\n\n"
        "FEATUREMODEL Listing {\n    MANDATORY Layout XOR {\n"
        "        Grid\n        List\n    }\n}\n\n"
        "FEATUREMODEL Layout XOR {\n    Grid\n    List\n}\n\n"
        + "".join(f"LOCAL {name} APPLIED TO data.Entity;\n" for name in locals_)
        + "DEFAULTS (List);\n"))
    spec = write(files, "shop.gis", (
        "CREATE ENTITY Book (id Long IDENTIFIER) WITH FEATURES (Grid);\n"
        "CREATE GIS Bookshop;"))
    rc = main(["check", spec, "--spl", spl])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == "1 errors, 0 warnings\n"
    assert err == (f"{spec}:1:41: error[invalid-selection]: entity 'Book' gets a configuration "
                   f"that is invalid against local model {locals_[0]!r}: xor group 'Layout' "
                   "has 2 selected children, needs exactly 1\n")
    rc = main(["emit", spec, "--spl", spl])
    out, _ = capsys.readouterr()
    assert rc == 1 and out == ""
    assert not (files / "Bookshop.derivation.json").exists()
    assert not list(files.glob(".emit-*"))


@pytest.mark.parametrize("locals_", [("A", "B"), ("B", "A")], ids=["A-first", "B-first"])
def test_check_and_emit_refuse_nested_defaults_that_clash(files, capsys, monkeypatch, locals_):
    """E has no clause and takes both defaults, A's {A, X} and B's {B}: two
    children of xor group A."""
    monkeypatch.chdir(files)
    spl = write(files, "xor.spl", (
        "VIEWPOINT data (Entity);\nVIEWPOINT visualization (Layer, Map, LayerInMap);\n"
        "FEATUREMODEL G { OPTIONAL A XOR { B { OPTIONAL Y } X } }\n"
        "FEATUREMODEL A XOR { B { OPTIONAL Y } X }\nFEATUREMODEL B { OPTIONAL Y }\n"
        + "".join(f"LOCAL {name} APPLIED TO data.Entity;\n" for name in locals_)
        + "DEFAULTS (X);\n"))
    spec = write(files, "xor.gis", "CREATE ENTITY E (id Long IDENTIFIER);\nCREATE GIS P;")
    rc = main(["check", spec, "--spl", spl])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == "1 errors, 0 warnings\n"
    assert err == (f"{spec}:1:1: error[invalid-selection]: entity 'E' gets a configuration "
                   "that is invalid against local model 'A': xor group 'A' has 2 selected "
                   "children, needs exactly 1\n")
    rc = main(["emit", spec, "--spl", spl])
    out, _ = capsys.readouterr()
    assert rc == 1 and out == ""
    assert not (files / "P.derivation.json").exists()
    assert not list(files.glob(".emit-*"))


def test_check_json_format(files, capsys):
    bad = write(files, "bad.gis",
                "CREATE GIS X WITH FEATURES (Bogus, LeftMenu, TopMenu);")
    rc = main(["check", bad, "--spl", str(files / "gis.spl"), "--format", "json"])
    out, err = capsys.readouterr()
    assert rc == 1
    rows = json.loads(err)
    # Sorted by position: the product statement (column 1) precedes the clause.
    assert [r["code"] for r in rows] == ["invalid-global-selection",
                                         "unknown-feature"]
    assert set(rows[0]) == {"file", "line", "column", "severity", "code",
                            "message"}
    assert rows[0]["file"].endswith("bad.gis")


def test_check_json_format_stays_silent_when_clean(files, capsys):
    rc = main(["check", str(files / "webeiel.gis"),
               "--spl", str(files / "gis.spl"), "--format", "json"])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""


def test_check_missing_files(files, capsys):
    rc = main(["check", str(files / "nope.gis"), "--spl", str(files / "gis.spl")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{files / 'nope.gis'}'\n")

    rc = main(["check", str(files / "webeiel.gis"), "--spl", str(files / "no.spl")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_check_reports_spec_syntax_errors(files, capsys):
    bad = write(files, "bad.gis", "CREATE GIS X WITH FEATURES (A");
    rc = main(["check", bad, "--spl", str(files / "gis.spl")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error[syntax]" in err
    assert "(expected" in err
    assert re.search(r"bad\.gis:1:\d+:", err)


def test_check_reports_non_finite_coordinates_as_syntax_errors(
        files, capsys, webeiel_source):
    bad = write(files, "inf.gis", webeiel_source.replace("40.712", "9" * 400, 1))
    rc = main(["check", bad, "--spl", str(files / "gis.spl")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "inf.gis:25:19: error[syntax]: coordinate out of range" in err


def test_check_reports_spl_syntax_errors(files, capsys):
    bad = write(files, "bad.spl", "FEATUREMODEL {")
    rc = main(["check", str(files / "webeiel.gis"), "--spl", bad])
    err = capsys.readouterr().err
    assert rc == 1
    assert "bad.spl" in err and "error[syntax]" in err


def test_check_reports_too_deep_nesting_as_a_syntax_error(files, capsys):
    deep = write(files, "deep.spl", nested_spl(5000))
    rc = main(["check", str(files / "webeiel.gis"), "--spl", deep])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"deep.spl:{MAX_FEATURE_DEPTH + 2}:3: error[syntax]" in err


def test_check_reports_definition_errors(files, capsys):
    bad = write(files, "twin.spl", TWIN_BREAK_SPL)
    rc = main(["check", str(files / "webeiel.gis"), "--spl", bad])
    err = capsys.readouterr().err
    assert rc == 1
    # at the local model's FEATUREMODEL line
    assert err == (f"{bad}:9:1: error[definition]: local model 'W': "
                   "children of 'W' differ (only in global copy: A)\n")


def test_definition_errors_are_reported_at_the_feature(files, capsys):
    bad = write(files, "dup.spl", "FEATUREMODEL R {\n    OPTIONAL A\n    OPTIONAL A\n}\n")
    rc = main(["check", str(files / "webeiel.gis"), "--spl", bad])
    assert rc == 1
    assert capsys.readouterr().err == f"{bad}:3:14: error[definition]: duplicate feature name 'A'\n"
    rc = main(["check", str(files / "webeiel.gis"), "--spl", bad, "--format", "json"])
    rows = json.loads(capsys.readouterr().err)
    assert rc == 1
    assert [(r["line"], r["column"], r["code"]) for r in rows] == [(3, 14, "definition")]


def test_check_warns_about_an_inert_local_line(files, capsys):
    spl = write(files, "shop.spl", (FIXTURES / "ecommerce.spl").read_text())
    spec = write(files, "x.gis", "CREATE GIS X;")
    rc = main(["check", spec, "--spl", spl])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == (f"{spl}:41:1: warning[inert-local]: LOCAL CategoryDisplay APPLIED TO "
                   "catalog.Category binds nothing: specification elements are only "
                   "data.Entity, visualization.Layer, visualization.Map, "
                   "visualization.LayerInMap\n")
    assert out == "0 errors, 1 warnings\n"


def test_json_format_reports_syntax_errors_at_their_position(files, capsys):
    # the second is a bad character after an earlier syntax error, which it beats
    for source, message in [("CREATE GIS x;\n_y", "unexpected character '_'"),
                            ('CREATE FOO;\n"', "unexpected character '\"'")]:
        bad = write(files, "bad.gis", source)
        rc = main(["check", bad, "--spl", str(files / "gis.spl"), "--format", "json"])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        [row] = json.loads(err)
        assert (row["line"], row["column"], row["code"]) == (2, 1, "syntax")

        rc = main(["check", bad, "--spl", str(files / "gis.spl")])
        assert rc == 1
        assert capsys.readouterr().err == f"{bad}:2:1: error[syntax]: {message}\n"


def test_check_reports_undeclared_local_models_at_the_name(files, capsys):
    bad = write(files, "unk.spl", "VIEWPOINT data (Entity);\n\nFEATUREMODEL G {\n}\n"
                                  "LOCAL W APPLIED TO data.Entity;\n")
    rc = main(["check", str(files / "webeiel.gis"), "--spl", bad])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"{bad}:5:7: error[syntax]: "
                   "LOCAL references undeclared feature model 'W'\n")

    # a second global model candidate, at its FEATUREMODEL line
    gis_spl = (files / "gis.spl").read_text(encoding="utf-8")
    two = write(files, "two.spl", gis_spl + "FEATUREMODEL Extra {\n}\n")
    rc = main(["check", str(files / "webeiel.gis"), "--spl", two])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"{two}:{gis_spl.count(chr(10)) + 1}:1: error[syntax]: definition needs exactly one "
        "feature model not declared LOCAL (the global model); candidates: GIS_SPL, Extra\n")


def test_check_cites_unplaceable_elements_in_the_spec(files, capsys):
    spl = write(files, "data.spl", "VIEWPOINT data (Entity);\n\nFEATUREMODEL G {\n}\n")
    spec = write(files, "m.gis", (
        "CREATE ENTITY City (id Long IDENTIFIER);\n"
        "CREATE GEOJSON LAYER cities AS C FOR City WITH STYLES (a DEFAULT);\n"
        "CREATE GIS X;"))
    rc = main(["check", spec, "--spl", spl])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == "1 errors, 0 warnings\n"
    assert err == (f"{spec}:2:1: error[no-metaclass]: definition declares no "
                   "visualization.Layer; cannot place element 'cities'\n")


def test_check_rejects_a_map_named_like_a_layer(files, capsys):
    spec = write(files, "clash.gis", (
        "CREATE ENTITY Hotel (id Long IDENTIFIER);\n"
        "CREATE GEOJSON LAYER hotels AS H FOR Hotel WITH STYLES (a DEFAULT);\n"
        "CREATE MAP hotels AS M WITH LAYERS (b IS_BASE_LAYER, hotels);\n"
        "CREATE GIS X;"))
    rc = main(["check", spec, "--spl", str(files / "gis.spl")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == "1 errors, 0 warnings\n"
    assert err == (f"{spec}:3:1: error[duplicate-name]: "
                   "map 'hotels' has the same name as layer 'hotels'\n")


# -- emit ----------------------------------------------------------------------

def test_emit_writes_the_default_path_in_the_working_directory(
        files, capsys, monkeypatch):
    monkeypatch.chdir(files)
    rc = main(["emit", str(files / "webeiel.gis"), "--spl", str(files / "gis.spl")])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out == "WebEIEL.derivation.json\n"
    first = (files / "WebEIEL.derivation.json").read_text(encoding="utf-8")
    assert verify_schema(first)

    rc = main(["emit", str(files / "webeiel.gis"), "--spl", str(files / "gis.spl")])
    assert rc == 0
    again = (files / "WebEIEL.derivation.json").read_text(encoding="utf-8")
    assert again == first


def test_emit_honors_out(files, capsys):
    target = files / "custom.json"
    rc = main(["emit", str(files / "webeiel.gis"), "--spl", str(files / "gis.spl"),
               "--out", str(target)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out == f"{target}\n"
    assert json.loads(target.read_text(encoding="utf-8"))["product"] == "WebEIEL"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_emit_gives_the_file_the_mode_open_would(files, capsys, umask, mode):
    target = files / "custom.json"
    old = os.umask(umask)
    try:
        rc = main(["emit", str(files / "webeiel.gis"), "--spl", str(files / "gis.spl"),
                   "--out", str(target)])
    finally:
        os.umask(old)
    assert rc == 0
    assert stat.S_IMODE(target.stat().st_mode) == mode


def test_emit_over_a_file_keeps_its_mode(files, capsys):
    target = files / "custom.json"
    argv = ["emit", str(files / "webeiel.gis"), "--spl", str(files / "gis.spl"),
            "--out", str(target)]
    old = os.umask(0o022)
    try:
        assert main(argv) == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        target.chmod(0o600)
        target.write_text("stale", encoding="utf-8")
        assert main(argv) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert json.loads(target.read_text(encoding="utf-8"))["product"] == "WebEIEL"


def test_emit_refuses_unwritable_directories(files, capsys):
    target = str(files / "missing" / "x.json")
    rc = main(["emit", str(files / "webeiel.gis"), "--spl", str(files / "gis.spl"),
               "--out", target])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert ".emit-" not in err


def test_emit_over_a_directory_removes_its_temporary_file(files, capsys):
    # the temporary file is written, then cannot replace the directory
    target = files / "out"
    target.mkdir()
    rc = main(["emit", str(files / "webeiel.gis"), "--spl", str(files / "gis.spl"),
               "--out", str(target)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot write {target}: Is a directory\n"
    assert not list(files.glob(".emit-*"))
    assert not list(target.iterdir())


def test_emit_leaves_no_file_behind_on_errors(files, capsys, monkeypatch):
    monkeypatch.chdir(files)
    bad = write(files, "bad.gis", "CREATE GIS Broken WITH FEATURES (Bogus);")
    rc = main(["emit", bad, "--spl", str(files / "gis.spl")])
    assert rc == 1
    assert not (files / "Broken.derivation.json").exists()
    assert not list(files.glob(".emit-*"))
    capsys.readouterr()

    # a repeated declaration has its clause checked too
    repeated = write(files, "rep.gis", (
        "CREATE ENTITY City (id Long IDENTIFIER) WITH FEATURES (Nope);\n" * 2
        + "CREATE GIS G;\n"))
    for argv in (["check"], ["emit", "--out", "rep.json"], ["emit"]):
        rc = main([*argv, repeated, "--spl", str(files / "gis.spl")])
        out, err = capsys.readouterr()
        assert rc == 1
        assert err.count("error[unknown-feature]") == 2
        assert out == ("3 errors, 0 warnings\n" if argv == ["check"] else "")
    assert not (files / "rep.json").exists()
    assert not (files / "G.derivation.json").exists()
    assert not list(files.glob(".emit-*"))


# -- explain -------------------------------------------------------------------

def test_explain_prints_an_aligned_table(files, capsys):
    rc = main(["explain", str(files / "webeiel.gis"),
               "visualization.municipalitiesMap", "--spl", str(files / "gis.spl")])
    out, _ = capsys.readouterr()
    assert rc == 0
    header, row = out.splitlines()
    assert header.split() == ["FEATURE", "ORIGIN", "SOURCE"]
    assert re.fullmatch(
        r"MapFeature\s+global-default \(no binding exists\)\s+\S*webeiel\.gis:40:1",
        row)
    assert header.index("SOURCE") == row.index(str(files / "webeiel.gis"))


def test_explain_lists_bound_features(files, capsys):
    # the rows read the element and its binding back from the multimodel
    for element, features in [("data.Municipality", 5), ("data.Hotel", 7)]:
        rc = main(["explain", str(files / "webeiel.gis"), element,
                   "--spl", str(files / "gis.spl")])
        out, _ = capsys.readouterr()
        lines = out.splitlines()
        assert rc == 0
        assert len(lines) == 1 + features
        [root] = [line for line in lines if line.startswith("EntityFeature")]
        assert re.match(r"EntityFeature +local \(bound local root\)  ", root)
        assert all("webeiel.gis:" in line for line in lines[1:])


def test_explain_prints_the_table_and_fails_after_error_diagnostics(files, capsys):
    spec = files / "webeiel.gis"
    main(["explain", str(spec), "data.Hotel", "--spl", str(files / "gis.spl")])
    clean, _ = capsys.readouterr()
    broken = write(files, "broken.gis", spec.read_text(encoding="utf-8").replace(
        "FormAccess, Filterable);", "FormAccess, Filterable, Sidebar);", 1))
    rc = main(["explain", broken, "data.Hotel", "--spl", str(files / "gis.spl")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert re.fullmatch(r".*broken\.gis:6:3: error\[unknown-feature\]: .*'Sidebar'.*\n", err)
    assert out == clean.replace(str(spec), broken)


def test_explain_rejects_unknown_elements(files, capsys):
    rc = main(["explain", str(files / "webeiel.gis"), "data.Nope",
               "--spl", str(files / "gis.spl")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: no covered element 'data.Nope' in the resolved product\n")


# -- features --------------------------------------------------------------------

def test_features_lists_the_included_features(files, capsys, webeiel_resolved):
    rc = main(["features", str(files / "webeiel.gis"),
               "--spl", str(files / "gis.spl")])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out.splitlines() == list(webeiel_resolved.included)
    assert "GIS_SPL" in out.splitlines()


def test_features_fails_on_errors(files, capsys):
    bad = write(files, "bad.gis", "CREATE GIS X WITH FEATURES (Bogus);")
    rc = main(["features", bad, "--spl", str(files / "gis.spl")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert "unknown-feature" in err


# -- enumerate -------------------------------------------------------------------

def test_enumerate_prints_count_then_configurations(files, capsys):
    toy = write(files, "toy.spl", TOY_SPL)
    rc = main(["enumerate", "--spl", toy, "--model", "R"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out.splitlines() == [
        "4", "A, B, C, R", "A, B, D, R", "B, C, R", "B, D, R"]


def test_enumerate_handles_local_models(files, capsys):
    # the whole output, each configuration and their order, is pinned by its
    # digest; GIS_SPL is the largest packaged model, whose REQUIRES FormAccess
    # Form meets below the root
    for model, count, digest in [
            ("EntityFeature", 23,
             "028d387eaea55430e08e246f23108994cc47ac284d75b6bd6ea34fe8dd09ec71"),
            ("GIS_SPL", 8832,
             "68dc9143d5d8fca6e9b4b3ea38c03641d7c275509f99f92e4668c37def4bf8b3")]:
        rc = main(["enumerate", "--spl", str(files / "gis.spl"), "--model", model])
        out, _ = capsys.readouterr()
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == str(count)
        assert len(lines) == count + 1
        assert all(model in line for line in lines[1:])
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_rejects_unknown_models(files, capsys):
    rc = main(["enumerate", "--spl", str(files / "gis.spl"), "--model", "Nope"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("error: no feature model named 'Nope' "
                   "(known: GIS_SPL, EntityFeature, MapFeature, LayerFeature)\n")


def test_enumerate_respects_the_size_cap(files, capsys):
    toy = write(files, "toy.spl", TOY_SPL)
    rc = main(["enumerate", "--spl", toy, "--model", "R", "--max", "3"])
    assert rc == 2
    assert "enumeration capped" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_enumerate_rejects_a_non_positive_cap(files, capsys, cap):
    toy = write(files, "toy.spl", TOY_SPL)
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--spl", toy, "--model", "R", "--max", cap])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.startswith("usage: lfc enumerate")
    assert f"argument --max: must be a positive integer, not {int(cap)}" in err


def test_enumerate_rejects_a_non_integer_cap(files, capsys):
    toy = write(files, "toy.spl", TOY_SPL)
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--spl", toy, "--model", "R", "--max", "many"])
    assert exc.value.code == 2
    assert "argument --max: invalid int value: 'many'" in capsys.readouterr().err


def test_enumerate_requires_a_readable_definition(files, capsys):
    rc = main(["enumerate", "--spl", str(files / "no.spl"), "--model", "R"])
    assert rc == 2


# -- unreadable input -----------------------------------------------------------

NOT_UTF8 = b"PRODUCT \xff\xfe"


@pytest.mark.parametrize("command, bad", [
    ("check", "spec"), ("check", "spl"),
    ("emit", "spec"), ("emit", "spl"),
    ("explain", "spec"), ("explain", "spl"),
    ("features", "spec"), ("features", "spl"),
    ("enumerate", "spl"),
])
def test_non_utf8_input_is_a_one_line_usage_error(files, capsys, command, bad):
    spec, spl = str(files / "webeiel.gis"), str(files / "gis.spl")
    broken = files / f"broken.{bad}"
    broken.write_bytes(NOT_UTF8)
    if bad == "spec":
        spec = str(broken)
    else:
        spl = str(broken)
    argv = {
        "check": ["check", spec, "--spl", spl],
        "emit": ["emit", spec, "--spl", spl, "--out", str(files / "out.json")],
        "explain": ["explain", spec, "data.Hotel", "--spl", spl],
        "features": ["features", spec, "--spl", spl],
        "enumerate": ["enumerate", "--spl", spl, "--model", "GIS_SPL"],
    }[command]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == f"error: {broken}: not UTF-8 text (byte 8: invalid start byte)\n"
    assert not (files / "out.json").exists()


BOM = "\ufeff".encode()


@pytest.mark.parametrize("spec, spl, argv", [
    (None, None, ["check"]),
    (None, None, ["emit", "--out", "{dir}/out.json"]),
    (None, None, ["explain", "data.Hotel"]),
    (None, None, ["features"]),
    (None, None, ["enumerate", "--model", "EntityFeature"]),
    ("CREATE GIS X WITH FEATURES (Bogus);", None, ["check"]),
    ("CREATE FOO;", None, ["check", "--format", "json"]),
    (None, "FEATUREMODEL R { OPTIONAL R }", ["check"]),
], ids=["check", "emit", "explain", "features", "enumerate",
        "spec-error", "spec-syntax-error", "definition-error"])
def test_a_leading_byte_order_mark_changes_nothing(files, capsys, spec, spl, argv):
    """Each input with a UTF-8 byte-order mark in front gives the exit code,
    output, diagnostic positions and emitted bytes of the input without it,
    line 1's columns included."""
    def run(directory, prefix):
        directory.mkdir()
        texts = {"in.gis": spec or (files / "webeiel.gis").read_text(encoding="utf-8"),
                 "in.spl": spl or (files / "gis.spl").read_text(encoding="utf-8")}
        for name, text in texts.items():
            (directory / name).write_bytes(prefix + text.encode())
        paths = [str(directory / "in.gis")] if argv[0] != "enumerate" else []
        command = [argv[0], *paths, *(a.format(dir=directory) for a in argv[1:]),
                   "--spl", str(directory / "in.spl")]
        rc = main(command)
        out, err = capsys.readouterr()
        emitted = (directory / "out.json").read_bytes() if argv[0] == "emit" else None
        return rc, out.replace(str(directory), "DIR"), err.replace(str(directory), "DIR"), emitted

    plain = run(files / "plain", b"")
    assert run(files / "bom", BOM) == plain
    assert plain[0] == (0 if spec is spl is None else 1)


def test_a_bad_byte_after_a_byte_order_mark_is_reported_at_its_offset_in_the_file(files, capsys):
    broken = files / "broken.gis"
    broken.write_bytes(BOM + NOT_UTF8)
    assert main(["check", str(broken), "--spl", str(files / "gis.spl")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {broken}: not UTF-8 text (byte 11: invalid start byte)\n"


def test_a_closed_stdout_ends_enumerate_quietly(files, package_env):
    # GIS_SPL's listing is far larger than a pipe buffer, so the writer is
    # still printing when the reader goes away after the first line
    proc = subprocess.Popen(
        [sys.executable, "-m", "localfeatures.cli", "enumerate",
         "--spl", str(files / "gis.spl"), "--model", "GIS_SPL"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first == b"8832\n"
    assert err == b""
    assert proc.returncode == 141


# -- determinism across processes ------------------------------------------------

# One lfc session in a fresh interpreter, run in a directory of its own
# whose parent holds webeiel.gis, gis.spl, scale.gis and broken.gis. It
# prints one sha256 per command, of its exit code, stdout, stderr and the
# file it wrote, if any.
_SESSION = """\
import contextlib, hashlib, io, os
from localfeatures import parse, parse_spl_definition, resolve
from localfeatures.cli import main

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    written = b""
    if os.path.exists("out.json"):
        with open("out.json", "rb") as handle:
            written = handle.read()
        os.remove("out.json")
    text = f"{rc}\\0{out.getvalue()}\\0{err.getvalue()}\\0".encode() + written
    print(" ".join(argv[:3]), hashlib.sha256(text).hexdigest())

spl = ("--spl", "../gis.spl")
run("emit", "../webeiel.gis", *spl, "--out", "out.json")
run("emit", "../scale.gis", *spl, "--out", "out.json")
with open("../webeiel.gis", encoding="utf-8") as handle:
    spec = parse(handle.read(), filename="../webeiel.gis")
with open("../gis.spl", encoding="utf-8") as handle:
    definition = parse_spl_definition(handle.read(), filename="../gis.spl")
for element in sorted(resolve(spec, definition).effective):
    run("explain", "../webeiel.gis", element, *spl)
run("features", "../webeiel.gis", *spl)
run("check", "../broken.gis", *spl, "--format", "json")
run("enumerate", *spl, "--model", "GIS_SPL")
"""


def test_commands_print_the_same_bytes_under_any_hash_seed(
        files, package_env, webeiel_resolved):
    """The README's "emission is deterministic", across processes: sets of
    names iterate in an order that depends on PYTHONHASHSEED."""
    write(files, "scale.gis", scale_spec_text(3))
    write(files, "broken.gis", (files / "webeiel.gis").read_text(encoding="utf-8").replace(
        "FormAccess, Filterable);", "FormAccess, Filterable, Sidebar, Nope);", 1))
    children = []
    for seed in ("0", "1"):
        (files / seed).mkdir()
        children.append(subprocess.Popen(
            [sys.executable, "-c", _SESSION], cwd=files / seed,
            env={**package_env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    (first, first_err), (second, second_err) = (child.communicate(timeout=60)
                                                for child in children)
    assert first_err == second_err == ""
    assert len(first.splitlines()) == len(webeiel_resolved.effective) + 5
    assert first == second


# -- color ----------------------------------------------------------------------

class FakeTty(io.StringIO):
    def isatty(self):
        return True


def test_color_enabled_only_on_a_tty_without_no_color(monkeypatch):
    monkeypatch.setattr(sys, "stderr", FakeTty())
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert _color_enabled()
    monkeypatch.setenv("NO_COLOR", "1")
    assert not _color_enabled()
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert not _color_enabled()


def test_diagnostics_are_colored_on_a_tty(monkeypatch):
    fake = FakeTty()
    monkeypatch.setattr(sys, "stderr", fake)
    monkeypatch.delenv("NO_COLOR", raising=False)
    print_diagnostics((Diagnostic("error", "x", "boom"),), "text")
    print_diagnostics((Diagnostic("warning", "y", "careful"),), "text")
    text = fake.getvalue()
    assert "\x1b[31merror\x1b[0m[x]" in text
    assert "\x1b[33mwarning\x1b[0m[y]" in text


def test_diagnostics_are_plain_when_no_color_is_set(monkeypatch):
    fake = FakeTty()
    monkeypatch.setattr(sys, "stderr", fake)
    monkeypatch.setenv("NO_COLOR", "1")
    print_diagnostics((Diagnostic("error", "x", "boom"),), "text")
    assert fake.getvalue() == "<spec>:1:1: error[x]: boom\n"


# -- start-up: each command imports only the layers it runs -------------------------

def imported_modules(env, *argv: str) -> set[str]:
    """The modules `python -X importtime <argv>` imports beyond those the
    interpreter's own start-up imports."""
    def run(*args: str) -> set[str]:
        result = subprocess.run([sys.executable, "-X", "importtime", *args],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        return {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    return run(*argv) - run("-c", "pass")


@pytest.mark.parametrize("command, loaded, absent", [
    (["enumerate", "--model", "EntityFeature"],
     {"localfeatures.spldef", "localfeatures.features", "localfeatures.multimodel"},
     {"localfeatures.resolver", "localfeatures.parser", "localfeatures.emitter",
      "dataclasses"}),
    (["check", "webeiel.gis"],
     {"localfeatures.parser", "localfeatures.spldef", "localfeatures.resolver"},
     {"localfeatures.emitter", "localfeatures.printer", "localfeatures.schemacheck",
      "dataclasses"}),
])
def test_commands_import_only_the_layers_they_run(files, package_env, command, loaded, absent):
    argv = [str(files / arg) if arg.endswith(".gis") else arg for arg in command]
    modules = imported_modules(package_env, "-m", "localfeatures.cli", *argv,
                               "--spl", str(files / "gis.spl"))
    assert loaded <= modules
    assert not absent & modules


def test_the_package_exports_its_names_lazily(package_env):
    script = (
        "import sys, localfeatures\n"
        "print(sorted(m for m in sys.modules if m.startswith('localfeatures')))\n"
        "print(sorted(set(localfeatures.__all__) - set(dir(localfeatures))))\n"
        "namespace = {}\n"
        "exec('from localfeatures import *', namespace)\n"
        "print(sorted(set(localfeatures.__all__) ^ set(namespace) - {'__builtins__'}))\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=package_env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['localfeatures']\n[]\n[]\n"
    assert localfeatures.parse is localfeatures.parser.parse
    assert localfeatures.errors.ParseError is ParseError
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        localfeatures.nothing
