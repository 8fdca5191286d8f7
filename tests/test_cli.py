import json

import pytest

from dodgson import parse_election, score_exact, DodgsonTriple, merge, serialize_election
from dodgson.cli import main

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
