import json

import pytest

from nestkit.cli import main
from nestkit.serialize import canonical_json


@pytest.fixture
def nest_file(tmp_path):
    path = tmp_path / "nest.json"
    path.write_text(canonical_json({
        "universe": 3, "family": [[0], [0, 1]], "kind": "nest",
    }), encoding="utf-8")
    return path


def test_check_pass_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", "--suite", "replay", "--json", str(out)])
    assert code == 0
    assert "suite replay: pass" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["status"] == "pass" and doc["violations"] == []


def test_check_lists_and_errors(capsys):
    assert main(["check", "--list"]) == 0
    assert "interlocking" in capsys.readouterr().out
    assert main(["check", "--suite", "nope"]) == 2
    assert main(["check"]) == 2


def test_demo(capsys):
    assert main(["demo", "--id", "quad-dual-nests"]) == 0
    out = capsys.readouterr().out
    assert "{x1,x2,x3}" in out and "ok" in out
    assert main(["demo", "--list"]) == 0
    assert main(["demo", "--id", "nope"]) == 2
    assert main(["demo"]) == 2


def test_analyze(nest_file, tmp_path, capsys):
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--input", str(nest_file), "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "T0-separating: True" in printed
    doc = json.loads(out.read_text())
    assert doc["is_nest"] and doc["sup_conditions"]["sups_exist"]
    assert doc["topologies"]["interval"].count("{") >= 2
    assert main(["analyze", "--input", str(tmp_path / "missing.json")]) == 2


def test_bounds(nest_file, tmp_path, capsys):
    out = tmp_path / "bounds.json"
    code = main([
        "bounds", "--input", str(nest_file), "--subset", "2", "--json", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["down"]["holds"] is False
    assert doc["up"]["holds"] is False
    assert main([
        "bounds", "--input", str(nest_file), "--subset", "banana",
    ]) == 2


def test_group_check(nest_file, tmp_path, capsys):
    code = main([
        "group-check", "--group", "z3", "--nest", str(nest_file),
        "--check", "translation",
    ])
    assert code == 0  # premise fails, so the implication stands
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["translation_closed"] is False
    trivial = tmp_path / "trivial.json"
    trivial.write_text(canonical_json({
        "universe": 3, "family": [[], [0, 1, 2]], "kind": "nest",
    }), encoding="utf-8")
    assert main([
        "group-check", "--group", "z3", "--nest", str(trivial),
        "--check", "translation",
    ]) == 0
    assert main([
        "group-check", "--group", "z3", "--nest", str(nest_file),
        "--check", "inversion",
    ]) == 0
    assert main([
        "group-check", "--group", "z2", "--nest", str(nest_file),
        "--check", "translation",
    ]) == 2  # wrong universe size


def test_search_cli(tmp_path, capsys):
    out_dir = tmp_path / "witnesses"
    code = main([
        "search", "--target", "escaping-sup-nests", "--max-n", "3",
        "--out", str(out_dir),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "3 witnesses" in printed
    assert len(list(out_dir.glob("*.json"))) == 3
    assert main(["search", "--list"]) == 0
    assert main(["search", "--target", "nope"]) == 2
    assert main(["search"]) == 2


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def _analyze_error(path, capsys):
    code = main(["analyze", "--input", str(path)])
    return code, capsys.readouterr().err


def test_analyze_rejects_non_integer_member_index(tmp_path, capsys):
    path = _write(tmp_path, "bad-index.json",
                  {"universe": 3, "family": [[0, "1"]], "kind": "family"})
    code, err = _analyze_error(path, capsys)
    assert code == 2
    assert "family" in err and "index" in err


def test_analyze_rejects_non_string_labels(tmp_path, capsys):
    path = _write(tmp_path, "bad-labels.json", {
        "universe": 3, "labels": [1, 2, 3], "family": [[0], [0, 1]], "kind": "nest",
    })
    code, err = _analyze_error(path, capsys)
    assert code == 2
    assert "labels" in err


def test_analyze_rejects_zero_denominator(tmp_path, capsys):
    path = _write(tmp_path, "zero-denominator.json", {
        "carrier": "Qsqrt2", "window": None, "shape": "open", "orientation": "lower",
        "endpoints": {"kind": "finite_list", "points": [{"a": [1, 0], "b": [0, 1]}]},
    })
    code, err = _analyze_error(path, capsys)
    assert code == 2
    assert "denominator" in err


def test_analyze_rejects_missing_ray_endpoint(tmp_path, capsys):
    path = _write(tmp_path, "missing-lo.json", {
        "carrier": "Q", "window": None, "shape": "open", "orientation": "lower",
        "endpoints": {"kind": "dense_interval", "hi": {"a": [1, 1], "b": [0, 1]}},
    })
    code, err = _analyze_error(path, capsys)
    assert code == 2
    assert "endpoint" in err and "'lo'" in err


def test_parser_is_built_once(monkeypatch, nest_file, capsys):
    from nestkit import cli

    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    cli._parser.cache_clear()
    try:
        assert main(["analyze", "--input", str(nest_file)]) == 0
        assert main(["check", "--suite", "nope"]) == 2
        assert main(["demo", "--list"]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_analyze_rejects_a_universe_past_the_bound(tmp_path, capsys, time_limit):
    from nestkit.cli import ANALYZE_UNIVERSE_BOUND

    chain = [list(range(k)) for k in range(23)]
    path = _write(tmp_path, "big.json", {"universe": 22, "family": chain, "kind": "nest"})
    with time_limit(5):
        code, err = _analyze_error(path, capsys)
    assert code == 2
    assert "'universe'" in err and str(ANALYZE_UNIVERSE_BOUND) in err
    # the bound itself is still answered
    at_bound = _write(tmp_path, "at-bound.json", {
        "universe": ANALYZE_UNIVERSE_BOUND,
        "family": chain[:ANALYZE_UNIVERSE_BOUND + 1], "kind": "nest",
    })
    with time_limit(20):
        assert main(["analyze", "--input", str(at_bound)]) == 0


@pytest.mark.parametrize("suite, flag, value", [
    # max_n=0 used to be recorded as 0 next to the 4-point instance count
    ("core-algebra", "--max-n", "0"),
    # a negative max_n used to pass with 0 instances
    ("bound-covers", "--max-n", "-2"),
    ("generated-orders", "--iters", "-1"),
    ("interlocking", "--max-members", "-1"),
    ("sup-conditions", "--workers", "-1"),
])
def test_check_rejects_an_out_of_range_config(tmp_path, capsys, suite, flag, value):
    out = tmp_path / "report.json"
    code = main(["check", "--suite", suite, flag, value, "--json", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err and value in err
    assert not out.exists()
