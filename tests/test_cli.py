import json

import pytest

from dodgson import parse_election, score_exact, DodgsonTriple, merge, serialize_election
from dodgson.cli import main
from dodgson.scoring import DEFAULT_STATE_CAP

from conftest import time_limit

CYCLE = "candidates: a b c\n1: a<b<c\n1: b<c<a\n1: c<a<b\n"
UNANIMOUS = "candidates: a b c\n3: a<b<c\n"
T5 = "candidates: 1 2 3 4 5 6\n1: 1<2<3<4<5<6\n"
T1 = "candidates: 1 2\n1: 1<2\n"
T2_DISJOINT = "candidates: u1 u2 u3\n1: u1<u2<u3\n"
EVEN = "candidates: a b\n1: a<b\n1: b<a\n"
YES2_3DM = "W: d d2\nX: e e2\nY: p p2\nd e p\nd2 e2 p2\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("cycle.dodg", CYCLE), ("unanimous.dodg", UNANIMOUS), ("t5.dodg", T5),
        ("t1.dodg", T1), ("t2b.dodg", T2_DISJOINT), ("even.dodg", EVEN),
        ("yes2.3dm", YES2_3DM),
    ]:
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def test_score_command(files, capsys):
    assert main(["score", files["t5.dodg"], "-c", "1"]) == 0
    assert capsys.readouterr().out == "score: 5\n"


def test_score_at_most_false_exits_one(files, capsys):
    assert main(["score", files["cycle.dodg"], "-c", "c", "--at-most", "0"]) == 1
    assert capsys.readouterr().out == "false\n"
    assert main(["score", files["cycle.dodg"], "-c", "c", "--at-most", "1"]) == 0


def test_score_negative_budget_exits_two(files, capsys):
    assert main(["score", files["cycle.dodg"], "-c", "c", "--at-most", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_score_at_most_on_many_voters(tmp_path, capsys):
    # 3,001 voters: one search layer per voter
    path = tmp_path / "two.dodg"
    path.write_text("candidates: a b\n2001: b<a\n1000: a<b\n")
    with time_limit(10):
        assert main(["score", str(path), "-c", "b", "--at-most", "600"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_winner_on_merge_of_pair_and_cycle(tmp_path, capsys):
    # 49 candidates and 8 voters, every one of them scored in full
    merged = merge(
        DodgsonTriple(parse_election("candidates: x y\n1: x<y\n"), "x"),
        DodgsonTriple(parse_election(CYCLE), "a"),
    )
    path = tmp_path / "merged.dodg"
    path.write_text(serialize_election(merged.election))
    with time_limit(30):
        assert main(["winner", str(path)]) == 0
    assert capsys.readouterr().out.endswith("winners: c d\n")


def test_score_unknown_candidate_exits_two(files, capsys):
    assert main(["score", files["cycle.dodg"], "-c", "z"]) == 2
    assert "unknown candidate 'z'" in capsys.readouterr().err


def test_score_parse_error_reports_line(files, tmp_path, capsys):
    bad = tmp_path / "bad.dodg"
    bad.write_text("candidates: a b\n1: a<a\n")
    assert main(["score", str(bad), "-c", "a"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_winner_command(files, capsys):
    assert main(["winner", files["cycle.dodg"]]) == 0
    out = capsys.readouterr().out
    assert "winners: a b c" in out
    assert main(["winner", files["unanimous.dodg"], "-c", "c"]) == 0
    assert main(["winner", files["unanimous.dodg"], "-c", "a"]) == 1


def test_ranking_command(files):
    assert main(["ranking", files["cycle.dodg"], "-c", "a", "-d", "b"]) == 0
    assert main(["ranking", files["unanimous.dodg"], "-c", "a", "-d", "c"]) == 1


def test_2er_command(files):
    assert main(["2er", files["t1.dodg"] + ":1", files["t2b.dodg"] + ":u1"]) == 0
    assert main(["2er", files["t2b.dodg"] + ":u1", files["t1.dodg"] + ":1"]) == 1
    assert main(["2er", files["even.dodg"] + ":a", files["t1.dodg"] + ":1"]) == 2


def test_merge_and_2er_share_the_odd_voter_message(files, tmp_path, capsys):
    # one check words the rule for every construction that needs odd voters
    even, odd = files["even.dodg"] + ":a", files["t1.dodg"] + ":1"
    errors = []
    for argv in (["reduce", "merge", even, odd, "-o", str(tmp_path / "m")], ["2er", even, odd]):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err.strip())
        assert errors[-1].endswith("must have an odd number of voters, got 2"), errors[-1]
    assert errors[0] == errors[1]


def test_reduce_merge_prime_builds_the_merge_once(files, tmp_path, monkeypatch):
    import dodgson.cli as cli
    import dodgson.gadgets as gadgets

    build, calls = gadgets.build_merge, []

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(gadgets, "build_merge", counted)
    monkeypatch.setattr(cli, "build_merge", counted)
    argv = ["reduce", "merge-prime", files["cycle.dodg"] + ":a", files["t2b.dodg"] + ":u1",
            "-o", str(tmp_path / "p")]
    assert main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv, message", [
    (["score", "{tmp}/missing.dodg", "-c", "a"], "cannot read {tmp}/missing.dodg: "),
    (["2er", "{cycle}", "{t1}:1"], "expected 'file:candidate', got '{cycle}'"),
    (["reduce", "3dm", "{yes2}", "{yes2}", "-o", "{tmp}/r"],
     "reduce 3dm takes exactly one .3dm file"),
    (["reduce", "merge", "{cycle}:a", "-o", "{tmp}/m"],
     "reduce merge takes exactly two file:candidate inputs"),
])
def test_input_errors_exit_two(argv, message, files, tmp_path, capsys):
    names = {name.split(".")[0]: path for name, path in files.items()} | {"tmp": str(tmp_path)}
    assert main([arg.format(**names) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(**names)), captured.err


def test_oracle_command(files, capsys):
    assert main(["oracle", files["cycle.dodg"], "-c", "c"]) == 0
    assert capsys.readouterr().out == "score: 1\n"
    assert main(["oracle", files["t5.dodg"], "-c", "1", "--oracle-cap", "2"]) == 0
    assert "unknown" in capsys.readouterr().out


def test_reduce_3dm_writes_outputs(files, tmp_path, capsys):
    out = tmp_path / "red"
    assert main(["reduce", "3dm", files["yes2.3dm"], "-o", str(out)]) == 0
    assert "9 candidates, 3 voters, threshold 6" in capsys.readouterr().out
    produced = parse_election(out.with_suffix(".dodg").read_text())
    assert len(produced.candidates) == 9
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["threshold"] == 6
    assert score_exact(DodgsonTriple(produced, sidecar["designated"])).score == 6


def test_reduce_3dm_totalizes_malformed_files(tmp_path, capsys):
    bad = tmp_path / "bad.3dm"
    bad.write_text("this is not a matching instance")
    out = tmp_path / "norm"
    assert main(["reduce", "3dm", str(bad), "-o", str(out)]) == 0
    assert "threshold 6" in capsys.readouterr().out  # canonical no-instance image


def test_reduce_sum_voter_count(files, tmp_path, capsys):
    out = tmp_path / "sum"
    code = main([
        "reduce", "sum", files["t1.dodg"] + ":1", files["t2b.dodg"] + ":u1",
        "-o", str(out),
    ])
    assert code == 0
    produced = parse_election(
        "\n".join(l for l in out.with_suffix(".dodg").read_text().splitlines()
                  if not l.startswith("#"))
    )
    assert produced.n == 2 * (1 + 1) - 1


def test_reduce_merge_rejects_even_voters(files, tmp_path, capsys):
    code = main([
        "reduce", "merge", files["even.dodg"] + ":a", files["t1.dodg"] + ":1",
        "-o", str(tmp_path / "m"),
    ])
    assert code == 2
    assert "odd" in capsys.readouterr().err


def test_reduce_2er_sentinel_branch(files, tmp_path, capsys):
    out = tmp_path / "s"
    code = main([
        "reduce", "2er-to-ranking", files["even.dodg"] + ":a", files["t1.dodg"] + ":1",
        "-o", str(out),
    ])
    assert code == 0
    assert "sentinel" in capsys.readouterr().out
    assert json.loads(out.with_suffix(".json").read_text())["sentinel"] is True
    assert not out.with_suffix(".dodg").exists()


def test_verify_suite_passes(files, capsys):
    assert main(["verify", "4", "--trials", "5", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "pass sum-additivity" in out


def test_verify_failure_writes_fixtures_and_exits_three(tmp_path, capsys, monkeypatch):
    import dodgson.verify as verify_module

    monkeypatch.setattr(
        verify_module, "_check_gap", lambda instance, cap: (False, "forced failure")
    )
    code = main(["verify", "3", "--trials", "1", "-o", str(tmp_path / "cex")])
    assert code == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    written = list((tmp_path / "cex").glob("*.3dm"))
    assert written, "expected a replayable counterexample fixture"


@pytest.mark.parametrize("error", [RuntimeError("boom"), MemoryError("out of room")])
def test_unexpected_exception_exits_four(error, files, capsys, monkeypatch):
    # exit 1 is the "false" answer, so a crash must not produce it
    import dodgson.cli as cli

    def crash(args):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "oracle", crash)
    assert main(["oracle", files["cycle.dodg"], "-c", "c"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal: {type(error).__name__}: {error}\n"


def test_json_output_is_byte_stable(files, capsys):
    args = ["score", files["cycle.dodg"], "-c", "c", "--witness", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["score"] == 1


def test_verify_json_stability(files, capsys):
    args = ["verify", "3", "--trials", "3", "--seed", "11", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["passed"] is True
    assert payload["config"] == {"seed": 11, "trials": 3, "state_cap": DEFAULT_STATE_CAP}
    assert [r["name"] for r in payload["results"]] == [
        "score-gap-exhaustive-q2", "score-gap-random-q3",
    ]


@pytest.mark.parametrize("argv", [
    ["verify", "4", "--trials", "0"],
    ["verify", "6", "--trials", "-3", "--json"],
])
def test_verify_rejects_trials_below_one(argv, capsys):
    # a run of no checks must not report a pass
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials must be at least 1" in captured.err


QUERIES = {
    "score": ["score", "e.dodg", "-c", "a"],
    "winner": ["winner", "e.dodg"],
    "ranking": ["ranking", "e.dodg", "-c", "a", "-d", "b"],
    "2er": ["2er", "e.dodg:a", "f.dodg:b"],
    "oracle": ["oracle", "e.dodg", "-c", "a"],
    "reduce": ["reduce", "3dm", "m.3dm", "-o", "out"],
}
INERT_FLAGS = [
    (command, flag)
    for command in ("score", "winner", "ranking", "2er", "reduce")
    for flag in ("--seed", "--trials", "--oracle-cap")
] + [("oracle", "--state-cap"), ("reduce", "--state-cap")]


@pytest.mark.parametrize("command, flag", INERT_FLAGS)
def test_flags_a_command_does_not_read_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(QUERIES[command] + [flag, "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# --- golden outputs of every reduce kind -------------------------------------

BAD_3DM = "this is not a matching instance"
REDUCE_INPUTS = {
    "cycle.dodg": CYCLE, "t1.dodg": T1, "t2b.dodg": T2_DISJOINT, "even.dodg": EVEN,
    "yes2.3dm": YES2_3DM, "bad.3dm": BAD_3DM,
}
# case -> (reduce arguments, -o prefix)
REDUCE_CASES = {
    "3dm": (["3dm", "yes2.3dm"], "out"),
    "3dm-malformed": (["3dm", "bad.3dm"], "out"),
    "sum": (["sum", "t1.dodg:1", "t2b.dodg:u1", "cycle.dodg:a"], "out"),
    "merge": (["merge", "cycle.dodg:a", "t1.dodg:1"], "out"),
    "merge-swapped": (["merge", "t1.dodg:1", "cycle.dodg:a"], "out"),
    "merge-prime": (["merge-prime", "cycle.dodg:a", "t2b.dodg:u1"], "out"),
    "wagner-g": (["wagner-g", "yes2.3dm", "bad.3dm"], "res/out.v1"),
    "2er-to-ranking": (["2er-to-ranking", "t1.dodg:1", "t2b.dodg:u1"], "out"),
    "2er-to-winner": (["2er-to-winner", "cycle.dodg:b", "t1.dodg:1"], "out"),
    "2er-sentinel-even": (["2er-to-winner", "even.dodg:a", "t1.dodg:1"], "out"),
    "2er-sentinel-unknown": (["2er-to-ranking", "t1.dodg:zz", "t1.dodg:1"], "out"),
}


def reduce_digests(workdir, arguments, out):
    """Run one reduce case in text and in --json mode inside ``workdir``;
    sha256 of both stdouts and of every file the runs wrote."""
    import contextlib
    import hashlib
    import io
    import os

    def sha(data: str) -> str:
        return hashlib.sha256(data.encode("utf-8")).hexdigest()

    workdir.mkdir()
    for name, text in REDUCE_INPUTS.items():
        (workdir / name).write_text(text)
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for mode, extra in (("text", []), ("json", ["--json"])):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                digests[f"{mode} exit"] = main(["reduce", *arguments, "-o", out, *extra])
            digests[f"{mode} stdout"] = sha(stdout.getvalue())
    finally:
        os.chdir(cwd)
    for path in sorted(workdir.rglob("*")):
        name = path.relative_to(workdir).as_posix()
        if path.is_file() and name not in REDUCE_INPUTS:
            digests[name] = sha(path.read_text(encoding="utf-8"))
    return digests


REDUCE_GOLDEN = {
    "2er-sentinel-even": {
        "text exit": 0,
        "text stdout": "44250775bcf46577ed7a93ec31d313a8fba4c4ca3f2691f2a570286540e863c3",
        "json exit": 0,
        "json stdout": "f370cd572a0e0d0cbaf76b0bb7b217ac70596b16411af0d3cc026b8f39e5fedb",
        "out.json": "a10457cef0197e91933b5e097973d472689c5ab4d2723163a5bb58dd476239a6",
    },
    "2er-sentinel-unknown": {
        "text exit": 0,
        "text stdout": "44250775bcf46577ed7a93ec31d313a8fba4c4ca3f2691f2a570286540e863c3",
        "json exit": 0,
        "json stdout": "90b7b4eb4ba1459bd82a8a74bcf2af55f79c27e02729249f5ea76b3bebad0e3d",
        "out.json": "d0fcd3e1aff5f8bcc82ecde286e11305997f43fa2f60cb500fdbe363a4a71e04",
    },
    "2er-to-ranking": {
        "text exit": 0,
        "text stdout": "f8ea6515d593e1fa70de63e485ca74d3a47e43e299dbfd6c1b4ba70cabad75ae",
        "json exit": 0,
        "json stdout": "ae7f711c1dba313ea22556780b8dcf772f09313b2e4d354498d7a81cca484ffa",
        "out.dodg": "6c12e531d5a7024ddc89c9d219c120ced23606c874fb324e447503e243a1eb90",
        "out.json": "88c2ffc436c12953d3bcb38bcba0b96667f92d5538091826935fc3230f638e0e",
    },
    "2er-to-winner": {
        "text exit": 0,
        "text stdout": "04f0f8c8928bccb281927ed5e81783cb1a733ccb621c104ee3e8d519d2a0c03f",
        "json exit": 0,
        "json stdout": "93c2333957429b1adebc02dc35ecde7938d513e576723af563df2ed4cb8e2c3e",
        "out.dodg": "43708258e24649311ff5a4124ad6b9129de52708c1fcc5025f7e5c32e9ac0bac",
        "out.json": "c2882d3ba754abf5687cbb4e2b76c8e27cb789a83963eedba4640e40f39897fa",
    },
    "3dm": {
        "text exit": 0,
        "text stdout": "1ef479bb6a80f72046bf0ca7c366cfc5382eeb5a1eb69d63668c5a09cfd081b2",
        "json exit": 0,
        "json stdout": "0872fc4396df7bbd1c410c2d2c28346f9d569fd7f0d40640482dc3be50d800d8",
        "out.dodg": "d709f5e929823b92b29002167a60b272950fc5d2992354d0f99f59920b46a82f",
        "out.json": "771997b7d2e00aec523a3c0b4fe88a744ce6b97118ad687727416f15d97c1719",
    },
    "3dm-malformed": {
        "text exit": 0,
        "text stdout": "1ef479bb6a80f72046bf0ca7c366cfc5382eeb5a1eb69d63668c5a09cfd081b2",
        "json exit": 0,
        "json stdout": "0872fc4396df7bbd1c410c2d2c28346f9d569fd7f0d40640482dc3be50d800d8",
        "out.dodg": "a735d318ccdd22a10d73167822285e4d4cdbd1bcaf95695083dd57f7e886a005",
        "out.json": "71ed390f7942e5c9dab657a11f36bdc4c6b714076793b92438aef35519cef612",
    },
    "merge": {
        "text exit": 0,
        "text stdout": "5f0f318de297aef6babdea5374da5e71783ef1210e5bb7218e4a6feeab770f00",
        "json exit": 0,
        "json stdout": "b22887515d8bc5936aa304b8d0ef8c3167ac09a07c8368df1ed559d6b880c19f",
        "out.dodg": "eca1bbd0e7e0f0c40ff83c562c3192e96885ad6987038cde2310e32a0c3cf8d4",
        "out.json": "e3782b70fadb720e8b9413de9c0d417f9606362ff4bfd7cd1b30e19faf8d3d20",
    },
    "merge-prime": {
        "text exit": 0,
        "text stdout": "9c056955dd9ec884c9ec6834c9577aa6ac89e4658d81ff5a757e42b2c508a3fa",
        "json exit": 0,
        "json stdout": "7cf2904af8edd027b61c523edc4513a8568dfe2fb73d99fc6189fa304682a7ff",
        "out.dodg": "28faf00980fa529b96efdc81c241b37a1d83e16261a6d7f9a50aef16cd236ccd",
        "out.json": "c07dabf7a09054086a8df602581329ce2ff2db9f0197d09272310bdce1bf85e4",
    },
    "merge-swapped": {
        "text exit": 0,
        "text stdout": "5f0f318de297aef6babdea5374da5e71783ef1210e5bb7218e4a6feeab770f00",
        "json exit": 0,
        "json stdout": "b22887515d8bc5936aa304b8d0ef8c3167ac09a07c8368df1ed559d6b880c19f",
        "out.dodg": "a3d74b3f7d4001153c36763b47ea15d29b70881a1b72a7a656e993f1de123d54",
        "out.json": "c7b529be123e4bd67e954e321ef070097853635a279a7e7580540056b8e33c36",
    },
    "sum": {
        "text exit": 0,
        "text stdout": "4079b20e1b8340974df33aeca825a201ac139d32919ea8df1d0d6123835bb231",
        "json exit": 0,
        "json stdout": "8b3d5bfbbc9af344b5d52c86baa7fc2a50b2c0537a5aa85e81f7cdac883e2501",
        "out.dodg": "68fba226cc6e5a3b91a9f740134a056034aa671238b4323b42f75816135d42b1",
        "out.json": "d9868e17685c8a6a1b91db31e33b59bfa5a028a55d6d2eb5a5b85777bf2de8d0",
    },
    "wagner-g": {
        "text exit": 0,
        "text stdout": "e413dc6ca605f26fecd20afad87b0bea1f25eb50496d279a3be74c8aacd8c59b",
        "json exit": 0,
        "json stdout": "9a22f6943ae47fc5bfe1f61968a82f07bb8990ff85a7ee3f68dbd67af85565dc",
        "res/out.json": "e323118d64efa4936c762d3ac59d033d3ab83e5a7da3f48d0dd22525f17356a5",
        "res/out.left.dodg": "a54ff3a58e3c49255fbfa526254cfb09329c90fa5ec6810ade5a6e3ce9f5278a",
        "res/out.right.dodg": "af84e7a8c6e300a67c3379940fa269ec5c9d2a42638ed841ae996bb467d2411c",
    },
}


@pytest.mark.parametrize("case", sorted(REDUCE_CASES))
def test_reduce_outputs_are_golden(case, tmp_path):
    arguments, out = REDUCE_CASES[case]
    assert reduce_digests(tmp_path / case, arguments, out) == REDUCE_GOLDEN[case]


def test_sidecar_designated_names_a_candidate_of_its_file(tmp_path):
    # top level for one-file kinds, per side for wagner-g
    for case, (arguments, out) in sorted(REDUCE_CASES.items()):
        reduce_digests(tmp_path / case, arguments, out)
        prefix = tmp_path / case / out
        sidecar = json.loads(prefix.with_suffix(".json").read_text())
        sides = {".dodg": sidecar}
        sides.update((f".{side}.dodg", sidecar[side])
                     for side in ("left", "right") if side in sidecar)
        for suffix, info in sides.items():
            if "designated" in info:
                election = parse_election(prefix.with_suffix(suffix).read_text())
                assert info["designated"] in election.candidates, (case, suffix)


def test_names_the_benchmark_imports_resolve():
    # make_refs.py needs SciPy to import, so both files are read as source;
    # importing dodgson.cli here makes ``from dodgson import cli`` resolve
    import ast
    import importlib
    from pathlib import Path

    import dodgson.cli

    bench = Path(__file__).resolve().parent.parent / "bench"
    layers = None
    for name in ("corpus.py", "make_refs.py"):
        tree = ast.parse((bench / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dodgson"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{name}: {node.module}.{alias.name}"
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CLI_LAYERS" for t in node.targets
            ):
                layers = ast.literal_eval(node.value)
    assert layers
    for name in layers:
        assert hasattr(dodgson.cli, name), name
