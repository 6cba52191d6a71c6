import hashlib
import json

import pytest

from nestkit import cli, search
from nestkit.analysis import is_interlocking
from nestkit.cli import main
from nestkit.groups import ContinuityReport
from nestkit.instances import slugs
from nestkit.search import SearchSpec, run_search
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


def test_check_records_only_the_flags_its_suite_reads(tmp_path, capsys):
    # replay reads neither --max-n nor --iters, so they leave no trace
    plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
    assert main(["check", "--suite", "replay", "--json", str(plain)]) == 0
    assert main([
        "check", "--suite", "replay", "--max-n", "3", "--iters", "5", "--json", str(flagged),
    ]) == 0
    assert flagged.read_bytes() == plain.read_bytes()


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


def test_group_check_checks_the_size_of_the_right_family(tmp_path, capsys):
    nest4 = tmp_path / "nest4.json"
    nest4.write_text(canonical_json({
        "universe": 4, "family": [[0], [0, 1]], "kind": "nest",
    }), encoding="utf-8")
    fam2 = tmp_path / "fam2.json"
    fam2.write_text(canonical_json({
        "universe": 2, "family": [[0]], "kind": "family",
    }), encoding="utf-8")
    argv = ["group-check", "--group", "z4", "--nest", str(nest4), "--check", "inversion"]
    assert main(argv) == 0
    capsys.readouterr()
    # a two-point family is as wrong behind --right as behind --nest
    assert main(argv + ["--right", str(fam2)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --right family universe does not match the group order" in captured.err
    assert main(["group-check", "--group", "z4", "--nest", str(fam2), "--check", "inversion"]) == 2
    assert "error: family universe does not match the group order" in capsys.readouterr().err


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


def test_search_exits_1_when_an_expected_empty_target_finds_a_witness(monkeypatch, capsys):
    argv = ["search", "--target", "interlocking-disagreements", "--max-n", "2"]
    assert main(argv) == 0
    monkeypatch.setattr(search, "is_interlocking", lambda family: not is_interlocking(family))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "witness: " in captured.out
    assert "error: target interlocking-disagreements is expected empty" in captured.err
    # a target whose witnesses are the point of the search still exits 0
    assert main(["search", "--target", "escaping-sup-nests", "--max-n", "2"]) == 0


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


def test_bounds_rejects_a_universe_past_the_bound(tmp_path, capsys, time_limit):
    from nestkit.cli import BOUNDS_UNIVERSE_BOUND

    # a universe this size still loads quickly; a billion points used to run
    # out of memory building the generated order
    path = _write(tmp_path, "big.json", {"universe": 100_000, "family": [[0]], "kind": "nest"})
    with time_limit(5):
        code = main(["bounds", "--input", str(path), "--subset", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "'universe'" in err and str(BOUNDS_UNIVERSE_BOUND) in err
    # the bound itself is still answered
    at_bound = _write(tmp_path, "at-bound.json", {
        "universe": BOUNDS_UNIVERSE_BOUND, "family": [[0], list(range(BOUNDS_UNIVERSE_BOUND))],
        "kind": "nest",
    })
    with time_limit(20):
        assert main(["bounds", "--input", str(at_bound), "--subset", "0"]) == 0


@pytest.mark.parametrize("suite, flag, value", [
    # max_n=0 used to be recorded as 0 next to the 4-point instance count
    ("core-algebra", "--max-n", "0"),
    # a negative max_n used to pass with 0 instances
    ("bound-covers", "--max-n", "-2"),
    ("generated-orders", "--iters", "-1"),
    ("interlocking", "--max-members", "-1"),
    ("sup-conditions", "--workers", "-1"),
    # generated-orders used to record max_n=5 while sweeping three points
    ("generated-orders", "--max-n", "5"),
])
def test_check_rejects_an_out_of_range_config(tmp_path, capsys, suite, flag, value):
    out = tmp_path / "report.json"
    code = main(["check", "--suite", suite, flag, value, "--json", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err and value in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    # each used to exit 0: complete over 0 instances, an exhausted budget,
    # and "empty range for randrange()"
    (["--max-n", "-3"], "--max-n"),
    (["--budget", "-5"], "--budget"),
    (["--mode", "random", "--max-n", "0"], "--max-n"),
    (["--max-members", "-1"], "--max-members"),
])
def test_search_rejects_an_out_of_range_spec(tmp_path, capsys, argv, flag):
    out = tmp_path / "search.json"
    code = main(["search", "--target", "sup-onto-nests", *argv, "--json", str(out)])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_search_flags_left_unset_take_the_spec_defaults(tmp_path, capsys):
    for target in ("sup-onto-nests", "translation-closed-nests"):
        out = tmp_path / f"{target}.json"
        assert main(["search", "--target", target, "--json", str(out)]) == 0
        assert out.read_text() == run_search(SearchSpec(target)).to_json()


def _stdout(argv, capsys) -> str:
    capsys.readouterr()
    main(argv)
    return capsys.readouterr().out


# sha256 of the stdout of `demo --id <slug>` and of the three --list commands
DEMO_DIGESTS = {
    "pair-dual-nests": "d6417581d4e83929bce7adc2dc6decfb6f5d49bf1cab7455e057a09185bc333e",
    "pair-t0-nest": "1b4c86a71f893e6101f37d0d0bfac448ebdab3e0765f8d9413451a6b797e22b6",
    "quad-dual-nests": "5f191cf4f7b1a69aa319c54090b1af80a53299cafb18468287250e945aa5d657",
    "rays-closed-dense": "d798010390034424de2e1b11a2accdf17e4fa9209d75eb186f0406912ff60846",
    "rays-closed-window": "726f9a23fada6e1f465f6ccb3720211377e4f86a423573e3489a5122cced8594",
    "rays-integer-steps": "e817081624794acd56193d98c55fa0158277627a0acae6be6b3807356459c919",
    "rays-open-dense": "7dc5f361448eabf2edca3b2c6ae3dbf585c899a6b9f3819f9146c0e20c349860",
    "rays-open-window": "274c3bdb7c532980d0f193ec81bfac7928658b34c93fdeeb6ec17c226a9aaf22",
    "rays-rational-carrier": "b14c50a226f0ebb79f1d3185ac0084a4e6c49cf8ae889c4a72c23d0851cd54f8",
    "rays-scale-group": "42ec7148e0f1da6e4e79571344fc9cb554d066ef163c8d0a5c9c306418244f2e",
    "rays-shift-group": "8b0a6a004d5901afaaacd3b7e2739eade0782bcc2ab6d1da4bbf9661eda81424",
}
LIST_DIGESTS = {
    "check": "b2ec8bba0ef1dd32d202a3372409765eb33957c892dad450fe5f25ae3c4a3e32",
    "search": "785f5f79ac2a17ea849dd795083f9c3e29869a96117ec009d9d68dd841070818",
    "demo": "8cbeb33ea29ee71795a6dda272c5566fd5218877722214503609c5e002e82dd9",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("slug", sorted(DEMO_DIGESTS))
def test_demo_output_keeps_its_bytes(slug, capsys):
    assert sorted(DEMO_DIGESTS) == slugs()
    assert _digest(_stdout(["demo", "--id", slug], capsys)) == DEMO_DIGESTS[slug]


def test_list_outputs_keep_their_bytes(capsys):
    for command, digest in LIST_DIGESTS.items():
        assert _digest(_stdout([command, "--list"], capsys)) == digest, command


def test_group_check_fails_when_the_conclusion_does(nest_file, tmp_path, monkeypatch, capsys):
    trivial = tmp_path / "trivial.json"
    trivial.write_text(canonical_json({
        "universe": 3, "family": [[], [0, 1, 2]], "kind": "nest",
    }), encoding="utf-8")
    argv = ["group-check", "--group", "z3", "--nest", str(trivial), "--check", "translation"]
    assert main(argv) == 0
    # the trivial nest is translation-closed, so a failed conclusion is a violation
    monkeypatch.setattr(cli, "order_compatible", lambda group, nest: False)
    assert main(argv) == 1
    monkeypatch.setattr(cli, "inversion_continuity",
                        lambda group, left, right: ContinuityReport(True, False))
    assert main(argv[:-1] + ["inversion"]) == 1
    # without the premise the implication stands
    monkeypatch.setattr(cli, "inversion_continuity",
                        lambda group, left, right: ContinuityReport(False, False))
    assert main(argv[:-1] + ["inversion"]) == 0
