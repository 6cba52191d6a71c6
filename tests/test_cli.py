import hashlib
import json

import pytest

from nestkit import analysis, cli, orders, search
from nestkit.analysis import is_interlocking
from nestkit.core import Nest, SetFamily, Universe
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
    from nestkit.serialize import UNIVERSE_BOUND as BOUNDS_UNIVERSE_BOUND

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


@pytest.mark.parametrize("document", [
    # each used to be built in full before any check ran: the relation took
    # seconds and hundreds of MB, the family a mask of 10^9 bits
    {"universe": 10**7, "pairs": []},
    {"universe": 10**9, "family": [[0]], "kind": "family"},
])
def test_loader_rejects_a_universe_past_the_bound(tmp_path, capsys, time_limit, document):
    from nestkit.serialize import UNIVERSE_BOUND

    path = _write(tmp_path, "big.json", document)
    with time_limit(5):
        code, err = _analyze_error(path, capsys)
    assert code == 2
    assert "'universe'" in err and str(UNIVERSE_BOUND) in err


def test_group_check_rejects_a_table_past_the_bound(tmp_path, capsys, nest_file):
    from nestkit.serialize import GROUP_ORDER_BOUND

    n = GROUP_ORDER_BOUND + 1
    table = _write(tmp_path, "table.json", {
        "order": n, "table": [[(a + b) % n for b in range(n)] for a in range(n)],
    })
    code = main(["group-check", "--group", str(table), "--nest", str(nest_file),
                 "--check", "translation"])
    assert code == 2
    assert "'table'" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["inversion", "multiplication"])
def test_group_check_rejects_continuity_past_the_bound(tmp_path, capsys, time_limit, check):
    # singletons generate the discrete topology, 2^n opens on n points
    n = cli.CONTINUITY_ORDER_BOUND + 1
    table = _write(tmp_path, "table.json", {
        "order": n, "table": [[(a + b) % n for b in range(n)] for a in range(n)],
    })
    singles = _write(tmp_path, "singles.json", {
        "universe": n, "family": [[x] for x in range(n)], "kind": "family",
    })
    argv = ["group-check", "--group", str(table)]
    with time_limit(5):
        code = main(argv + ["--nest", str(singles), "--check", check])
    err = capsys.readouterr().err
    assert code == 2
    assert "--group" in err and str(cli.CONTINUITY_ORDER_BOUND) in err
    # translation reads no topology and keeps the loader's bound
    point = _write(tmp_path, "point.json", {"universe": n, "family": [[0]], "kind": "nest"})
    assert main(argv + ["--nest", str(point), "--check", "translation"]) == 0


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


# one-shot documents: nests and non-nest families on 1-7 points, the empty
# family, families holding {} and X, default labels and multi-character ones;
# a nest carries the --subset its `bounds --direction both` request reads
ANALYZE_DOCUMENTS = {
    "empty-1": ({"universe": 1, "family": [], "kind": "family"}, "0"),
    "empty-labelled-4": (
        {"universe": 4, "labels": ["north", "east", "south", "west"], "family": [],
         "kind": "family"}, ""),
    "point-chain-1": ({"universe": 1, "family": [[], [0]], "kind": "nest"}, "0"),
    "chain-2": ({"universe": 2, "family": [[0]], "kind": "nest"}, "1"),
    "trivial-3": ({"universe": 3, "family": [[], [0, 1, 2]], "kind": "nest"}, "0,2"),
    "nest-3": ({"universe": 3, "family": [[0], [0, 1]], "kind": "nest"}, "2"),
    "singletons-3": ({"universe": 3, "family": [[0], [1], [2]], "kind": "family"}, None),
    "trivial-and-two-3": (
        {"universe": 3, "family": [[], [0], [1], [0, 1, 2]], "kind": "family"}, None),
    "nest-labelled-4": (
        {"universe": 4, "labels": ["alpha", "beta", "gamma", "delta"],
         "family": [[1], [1, 3], [0, 1, 3]], "kind": "nest"}, "0,3"),
    "overlaps-4": ({"universe": 4, "family": [[0, 1], [1, 2], [2, 3]], "kind": "family"}, None),
    "nest-5": ({"universe": 5, "family": [[], [2], [2, 4], [0, 2, 4]], "kind": "nest"}, "1,4"),
    "cosingletons-labelled-5": (
        {"universe": 5, "labels": ["p10", "p20", "p30", "p40", "ω₁"],
         "family": [[1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 4], [0, 1, 2, 3]],
         "kind": "family"}, None),
    "full-chain-6": (
        {"universe": 6, "family": [list(range(k)) for k in range(1, 7)], "kind": "nest"}, "3"),
    "triangles-6": (
        {"universe": 6, "family": [[0, 1, 2], [2, 3, 4], [0, 4, 5], [1, 3, 5]],
         "kind": "family"}, None),
    "nest-labelled-7": (
        {"universe": 7, "labels": ["mon", "tue", "wed", "thu", "fri", "sat", "sun"],
         "family": [[3], [3, 6], [0, 3, 5, 6]], "kind": "nest"}, "1,2"),
    "family-7": (
        {"universe": 7, "family": [[0, 1], [1, 2, 3], [3, 4, 5, 6], [0, 6]], "kind": "family"},
        None),
}
# sha256 of (stdout, --json bytes) of `analyze` and of `bounds --direction
# both` on each document, recorded before the rosters were rendered from masks
ANALYZE_DIGESTS = {
    "chain-2": {
        "analyze": (
            "02d2820180a7bb6d3b77af8b5b4b1d201bef62365af608e1fed89537422f6dad",
            "faa009a7609b82b94cc342532e0f05db785d4ab1854723b591d13c692189c36f",
        ),
        "bounds": (
            "c2ba5fb9671512145aa1aa2da439c0e1e1b0cc5a887f1ef3293816eee7aa993c",
            "122e69b4d7b7fca76eb2f583ab29b2189785478c1a63ff26ff8f69cf0d89affb",
        ),
    },
    "cosingletons-labelled-5": {
        "analyze": (
            "63acb681c90edfde70afac639eca67a5981f16190d6deab4e3a825dc617e94f6",
            "6d53876cc176acd3fcc83303ab4cbf1ec17be3854568324f5598958f91e276ea",
        ),
    },
    "empty-1": {
        "analyze": (
            "65ab0a94641743c46fcb414eeadb06db676a58f8dcce9d11cf64cd8860d0e3f5",
            "9a044267ac3c332ef6eb9061cd4ecc8d3bfad2713733ff290d1f8c6d853d9aac",
        ),
        "bounds": (
            "0f2e77777bbf027e87d336a2aecf685062305fc5becd252f2ab6abe70a240163",
            "049516378f30c41ef2fab8594cbccac09d8dee65a347e604b355d920fa11001b",
        ),
    },
    "empty-labelled-4": {
        "analyze": (
            "4e40bbf6be2aea07fbf3a87db96c86073556cf40f8ecc1fbf47b3ac38de458d8",
            "0f3dad3aa68adb72c1d07b8e71f99d8086947f02376f826657eef5bc47c9ee79",
        ),
        "bounds": (
            "2b9104181da90df9aeb64fb2db06e33f91622e60763d20b5cb023a728a86832b",
            "de04b65e88c271cc7d3b15628dcb6f5c84848b92b87906bdbed4b2b6a16e4ef2",
        ),
    },
    "family-7": {
        "analyze": (
            "c846b763589fe64694d2638aa404e8ce0a139d0626f56868e0778543b36e6225",
            "4e2fa4e0188e0eb7f4529bbeac48a43135aee4fc3f8be245e0eae741739a1864",
        ),
    },
    "full-chain-6": {
        "analyze": (
            "0dea5f90b418eba92385c1e34914a638580ee9caa399884057e38ec5a1d9a02d",
            "7492db9ae7faab180129ee6d2d67e70521868af38bcfd70ec253a06d510884ca",
        ),
        "bounds": (
            "8a366120d924ad2771b519f9014d23f6b45cbb803a84defe56f45319133014ae",
            "9651f1b4ff49b94e317695b18b227b2273e77cb281d03b1cb2c37db9ae7e4fd5",
        ),
    },
    "nest-3": {
        "analyze": (
            "c33f6acabecfe3bf901fd0ef95fd8872003c6f1527b308e5a13452ca62b3813d",
            "e31e896470a58b4595e3a33c4057ba15fb4b89882bf27ed8aa13f1658a0d1291",
        ),
        "bounds": (
            "0cf9f1a2bf09e1380b63ecd999751ba37d29be6aa74f9192a97aa185fa94ce2f",
            "d7e2250dc91ab8c75ce347e525cd7d2a4176a65006a6cb6ecab5a98b27b9072c",
        ),
    },
    "nest-5": {
        "analyze": (
            "7a15b3096bb5c846b6a3d84f5e6403e12aeabbe5dd3e5468907fb5bb9e6375be",
            "fb8691d2523fdf0d403bfe2d25ac745cf9564a75a112461e35c2649fe79f7ce7",
        ),
        "bounds": (
            "0128ccc1fbe3e1f00eb3e2f785c552b1896c1378805dae2f5fcb9ca51bab61d6",
            "c8be63d921502103d56e0ef93eb16c16798cec6a3d1a4b11f36426bc1afcd6f4",
        ),
    },
    "nest-labelled-4": {
        "analyze": (
            "205566d36a32dcbd81f24a56acafa5b37b55fb8634105e6b111f9e39c30d3334",
            "59f621527b70d7c6d4b9d6ce0d6d57cd2fa1b044967b8db814a7a445447d6109",
        ),
        "bounds": (
            "4059d74392c1fcfe9015b6bf25f0fa096e1cb4d32320d512fbbe3a62bf1d396e",
            "82416e54e8406eae7d559873ab20bbbdda6f7029f8410edb0259f19f46945997",
        ),
    },
    "nest-labelled-7": {
        "analyze": (
            "4b5871a4f6b3b0b645eee9b6250d5475ad1c9abb69722267417ff1039c7a38dc",
            "bc57dc2da5df9970182e26cba56d8302bdac7b7233bbfc35b86d262eabc5f5ee",
        ),
        "bounds": (
            "a1cbd3bad6f0030f69b3ec987295797c0a51be2c8732aa5c3f06282a51d02af7",
            "37db59ab744dcd0cb5ecdd4eda0e2160acd17e1d2648deb075287b7ebbfbcb40",
        ),
    },
    "overlaps-4": {
        "analyze": (
            "4e0e734470fbae9ee757dff73efb1f0701324fea4b6151f1368a4409135432b2",
            "c0fb74850acf04043a49804ce87a43db1f869a2c086a5d29a5774f91dca5a787",
        ),
    },
    "point-chain-1": {
        "analyze": (
            "43a60ffc5f08360f500fe27e96d28a7d7820f201d6324a0e01fe4a1cb99030ec",
            "61ac90a68b627824431eebb69bd4b12e1bf80ce4ff915b3ed76a6e5c17af64cc",
        ),
        "bounds": (
            "0f2e77777bbf027e87d336a2aecf685062305fc5becd252f2ab6abe70a240163",
            "049516378f30c41ef2fab8594cbccac09d8dee65a347e604b355d920fa11001b",
        ),
    },
    "singletons-3": {
        "analyze": (
            "048b3c35bf0aaba345e3e1710ef1bbebaecb150ab18e7ffa2888d9cf67b3e6b9",
            "2ff4f7f38a96de8616059f4041b1b2695aeae3eb04abf0506e3b7796f27372ca",
        ),
    },
    "triangles-6": {
        "analyze": (
            "a7ed590d3febfb124bf6f7561b0db5a4ea916f7539612a217cd37dd815bac8cb",
            "eb66a426248ca2faade71a72f063abbb1fcd9724279f00bdcedf735b88414493",
        ),
    },
    "trivial-3": {
        "analyze": (
            "449dec3a973f16853b5137dde2c19275e014e74ea2fd8b5785ecbebc197cea8a",
            "2ff4c88dff071fdb5fa0c124bcc6226a7ec8ccf72b5b2ba3cdd48ce62c9d7668",
        ),
        "bounds": (
            "e8f1b67c2bc708bb618ee0beb43c91fd157dc121326787a7131c36ff2b3c5fd3",
            "7e31a58a5b8487a9a85ac40b12f760bffc6a5929c238aa3bc5899c4837a6cd90",
        ),
    },
    "trivial-and-two-3": {
        "analyze": (
            "57bd11b9492557359f73b53cf060a9192db2f6f49135581ea130ee80bdc49585",
            "27f791097f035b1900dee896bd6bcc6f4c9f62a2974a7108d0bc187b39e28916",
        ),
    },
}


def _one_shot(argv, out, capsys) -> tuple[str, str]:
    capsys.readouterr()
    assert main(argv + ["--json", str(out)]) == 0
    return _digest(capsys.readouterr().out), hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(ANALYZE_DOCUMENTS))
def test_one_shot_outputs_keep_their_bytes(name, tmp_path, capsys):
    document, subset = ANALYZE_DOCUMENTS[name]
    path = _write(tmp_path, "instance.json", document)
    got = {"analyze": _one_shot(["analyze", "--input", str(path)], tmp_path / "a.json", capsys)}
    if subset is not None:
        got["bounds"] = _one_shot(
            ["bounds", "--input", str(path), "--subset", subset, "--direction", "both"],
            tmp_path / "b.json", capsys)
    assert got == ANALYZE_DIGESTS[name]


def test_analyze_derives_each_order_and_each_set_of_columns_once(monkeypatch):
    # a nest's order and its complement's, once each; the columns of the
    # strict order (the dual pair's check) and of the preorder (the upper and
    # interval topologies), once each; a family that is no nest has one order
    # and reads its preorder's columns alone.  A nest's context derives its
    # order as the packed product (at most 8 points), a family's order is the
    # walk of `order_rows`
    derived = []
    order_rows, columns = orders.order_rows, orders.columns
    packed_product = orders.packed_product
    monkeypatch.setattr(orders, "order_rows", lambda *a: derived.append("rows") or order_rows(*a))
    monkeypatch.setattr(orders, "packed_product",
                        lambda *a: derived.append("rows") or packed_product(*a))
    for module in (orders, analysis):
        monkeypatch.setattr(module, "columns", lambda rows: derived.append("cols") or columns(rows))
    nest = cli.analyze_family(Nest.of(Universe(4), [[0], [0, 1], [0, 1, 2]]))
    assert nest["is_nest"] and sorted(derived) == ["cols", "cols", "rows", "rows"]
    derived.clear()
    family = cli.analyze_family(SetFamily.of(Universe(3), [[0], [1]]))
    assert not family["is_nest"] and sorted(derived) == ["cols", "rows"]


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
