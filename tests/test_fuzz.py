"""Malformed input through every command: seeded mutations of the tests' and
the CI's small .dodg and .3dm files must each end, in process, with exit 0,
1 or 2, and a .dodg file the parser rejects must give exit 2, never the
"false" answer 1.  The reductions that totalize their input (``reduce 3dm``,
``wagner-g`` and ``2er-to-*``) map a rejected file to a fixed output and exit
0.  Huge valid counts are out of scope here: the ``score --witness`` of one
holds a list per voter."""

import random
import re

import pytest

from dodgson import ParseError, parse_election
from dodgson.cli import main

from conftest import time_limit

DODG = {
    "cycle": "candidates: a b c\n1: a<b<c\n1: b<c<a\n1: c<a<b\n",
    "unanimous": "candidates: a b c\n3: a<b<c\n",
    "t5": "candidates: 1 2 3 4 5 6\n1: 1<2<3<4<5<6\n",
    "even": "candidates: a b\n1: a<b\n1: b<a\n",
    "m2a": "candidates: a1 a2 a3\n1: a1<a2<a3\n1: a2<a1<a3\n1: a3<a1<a2\n",
    "m2z": "candidates: z1 z2 z3\n1: z1<z3<z2\n1: z2<z1<z3\n1: z3<z1<z2\n",
    "grouped": "# comment\ncandidates: a b c d\n2: a<b<c<d\n1: d<c<b<a\n2: b<d<a<c\n",
}
MATCHINGS = {
    "yes": "W: d d2\nX: e e2\nY: p p2\nd e p\nd2 e2 p2\n",
    "no": "W: d d2\nX: e e2\nY: p p2\nd e p\nd e p2\n",
    "hard": "W: w1 w2 w3\nX: x1 x2 x3\nY: y1 y2 y3\nw1 x1 y2\nw1 x2 y1\nw1 x2 y2\nw1 x3 y2\n"
            "w2 x1 y2\nw2 x1 y3\nw2 x3 y1\nw3 x1 y3\nw3 x2 y1\nw3 x2 y3\nw3 x3 y2\nw3 x3 y3\n",
}
# counts that int() reads but the format rejects: zero, signs, '_', and
# full-width and Arabic-Indic digits
COUNTS = ["0", "-3", "+3", "1_0", "１", "٣", "00", "-0"]
MUTANTS = 20  # per seed file


def _mutate(text: str, rng: random.Random, counts: bool) -> str:
    """Drop, duplicate or swap tokens, or (in a .dodg file) rewrite a count."""
    tokens = re.findall(r"\s+|[<:]|[^\s<:]+", text)
    kind = rng.choice(["drop", "dup", "swap", "count"] if counts else ["drop", "dup", "swap"])
    if kind == "count":
        lines = text.splitlines(keepends=True)
        voters = [i for i, line in enumerate(lines) if line[:1].isdigit()]
        i = rng.choice(voters)
        lines[i] = rng.choice(COUNTS) + lines[i][lines[i].index(":"):]
        return "".join(lines)
    i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
    if kind == "drop":
        del tokens[i]
    elif kind == "dup":
        tokens.insert(i, tokens[i])
    else:
        tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


def _run(argv: list[str]) -> int:
    with time_limit(5):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse
            return exc.code


def _dodg_commands(path: str, x: str, y: str, out: str) -> dict[str, list[str]]:
    return {
        "score": ["score", path, "-c", x],
        "score-witness": ["score", path, "-c", x, "--witness", "--json"],
        "score-at-most": ["score", path, "-c", x, "--at-most", "2"],
        "winner": ["winner", path],
        "winner-c": ["winner", path, "-c", x],
        "ranking": ["ranking", path, "-c", x, "-d", y],
        "2er": ["2er", f"{path}:{x}", f"{path}:{y}"],
        "oracle": ["oracle", path, "-c", x],
        **{f"reduce-{kind}": ["reduce", kind, f"{path}:{x}", f"{path}:{y}", "-o", out]
           for kind in ("sum", "merge", "merge-prime", "2er-to-ranking", "2er-to-winner")},
    }


@pytest.mark.parametrize("name", sorted(DODG))
def test_mutated_elections_exit_zero_one_or_two(name, tmp_path, capsys):
    rng = random.Random(f"fuzz:{name}")
    fallback = parse_election(DODG[name]).candidates
    path = tmp_path / "e.dodg"
    rejected = 0
    for _ in range(MUTANTS):
        text = _mutate(DODG[name], rng, counts=True)
        path.write_text(text, encoding="utf-8")
        try:
            names = parse_election(text).candidates
            parsed = True
        except ParseError:
            names, parsed = fallback, False
            rejected += 1
        x, y = names[0], names[-1]
        for label, argv in _dodg_commands(str(path), x, y, str(tmp_path / "out")).items():
            code = _run(argv)
            capsys.readouterr()
            assert code in (0, 1, 2), (label, text, code)
            if not parsed:
                want = 0 if label.startswith("reduce-2er") else 2
                assert code == want, (label, text, code)
    assert rejected, "no mutant of this file was rejected"


@pytest.mark.parametrize("name", sorted(MATCHINGS))
def test_mutated_matchings_are_totalized(name, tmp_path, capsys):
    rng = random.Random(f"fuzz:{name}")
    path = tmp_path / "m.3dm"
    for _ in range(MUTANTS):
        text = _mutate(MATCHINGS[name], rng, counts=False)
        path.write_text(text, encoding="utf-8")
        for argv in (["reduce", "3dm", str(path)], ["reduce", "wagner-g", str(path), str(path)]):
            code = _run(argv + ["-o", str(tmp_path / "out")])
            capsys.readouterr()
            assert code == 0, (argv, text, code)
