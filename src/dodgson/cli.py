"""Command-line front end.

Exit codes follow a scripting convention: 0 for success (and true decisions),
1 for false decisions, 2 for parse or validation problems, 3 for a property
violation found by ``verify``, 4 for an unexpected internal error (never 1,
which would read as a "false" answer).

Designated candidates are never stored in .dodg files; they are passed as
``-c`` flags or ``file:candidate`` arguments so one election file can serve
many queries.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import groupby
from pathlib import Path

from .elections import DodgsonTriple, Election, parse_election, serialize_election
from .gadgets import (
    build_merge,
    build_parity_combiner,
    build_reduction,
    build_sum,
    merge_prime,  # bench/corpus.py's CLI_LAYERS reads it here until the benchmark refresh
)
from .matching import parse_matching
from .scoring import (
    DEFAULT_ORACLE_CAP,
    _ladder,
    all_scores,
    is_winner,
    ranks_at_least,
    score_decision,
    score_exact,
    score_oracle,
    two_election_ranking,
)
from .verify import RunConfig, SUITE_NAMES, run_suite

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_VIOLATION = 3
EXIT_UNKNOWN = 4


def _load_election(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return parse_election(text)


def _require_candidate(election, name: str, path: str):
    if name not in election.candidates:
        raise ValueError(f"unknown candidate {name!r} in {path}")


def _load_designated(path: str, name: str) -> DodgsonTriple:
    election = _load_election(path)
    _require_candidate(election, name, path)
    return DodgsonTriple(election, name)


def _load_triple(ref: str) -> DodgsonTriple:
    path, sep, candidate = ref.rpartition(":")
    if not sep or not path:
        raise ValueError(f"expected 'file:candidate', got {ref!r}")
    return _load_designated(path, candidate)


def _emit(payload: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _decide(payload: dict, verdict: bool, as_json: bool) -> int:
    _emit(payload, [str(verdict).lower()], as_json)
    return EXIT_OK if verdict else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dodgson",
        description="Exact analysis of Dodgson elections and their gadget constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="Dodgson score of one candidate")
    p.add_argument("file")
    p.add_argument("-c", "--candidate", required=True)
    mode = p.add_mutually_exclusive_group()  # a decision has no witness to print
    mode.add_argument("--at-most", type=int, default=None, metavar="K",
                      help="decide Score <= K instead of computing the score")
    mode.add_argument("--witness", action="store_true", help="also print a witness allocation")

    p = sub.add_parser("winner", help="Dodgson winners, or one candidate's winner status")
    p.add_argument("file")
    p.add_argument("-c", "--candidate")

    p = sub.add_parser("ranking", help="does one candidate tie-or-defeat another?")
    p.add_argument("file")
    p.add_argument("-c", "--candidate", required=True)
    p.add_argument("-d", "--other", required=True)

    p = sub.add_parser("2er", help="compare designated candidates of two elections")
    p.add_argument("left", help="file:candidate")
    p.add_argument("right", help="file:candidate")

    p = sub.add_parser("oracle", help="best-first sequential-switch oracle (desk scale)")
    p.add_argument("file")
    p.add_argument("-c", "--candidate", required=True)

    p = sub.add_parser("reduce", help="run a gadget construction and write its output")
    p.add_argument("kind", choices=_REDUCERS)
    p.add_argument("inputs", nargs="+",
                   help=".3dm file(s) for 3dm/wagner-g; file:candidate pairs otherwise")
    p.add_argument("-o", "--out", default="out", help="output path prefix (default: out)")

    p = sub.add_parser("verify", help="replay a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES,
                   help="3: reduction score gap; 4: sum additivity; "
                        "6: merge laws; wagner: parity law; theorems: end-to-end reductions")
    p.add_argument("-o", "--out", default=".", help="directory for counterexample fixtures")
    p.add_argument("--seed", type=int, default=0, help="base seed for random trials")
    p.add_argument("--trials", type=int, default=25, help="random trials per property")

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _cmd_score(args) -> int:
    triple = _load_designated(args.file, args.candidate)
    if args.at_most is not None:
        verdict = score_decision(triple, args.at_most)
        return _decide({"command": "score", "candidate": args.candidate,
                        "at_most": args.at_most, "decision": verdict}, verdict, args.json)
    result = score_exact(triple) if args.witness else None
    score = result.score if result else _ladder(triple)[0]
    payload = {"command": "score", "candidate": args.candidate, "score": score}
    if result is None:
        _emit(payload, [f"score: {score}"], args.json)
        return EXIT_OK
    # the witness goes out one run of equal raises at a time, as a str per voter
    # would outweigh its int; "witness" sorts after every other key
    sep = ", " if args.json else " "
    sys.stdout.write(json.dumps(payload, sort_keys=True)[:-1] + ', "witness": ['
                     if args.json else f"score: {score}\nwitness: ")
    for i, (value, run) in enumerate(groupby(result.witness)):
        text = str(value)
        sys.stdout.write((sep if i else "") + text + (sep + text) * (sum(1 for _ in run) - 1))
    sys.stdout.write("]}\n" if args.json else "\n")
    return EXIT_OK


def _cmd_winner(args) -> int:
    if args.candidate is not None:
        verdict = is_winner(_load_designated(args.file, args.candidate))
        return _decide({"command": "winner", "candidate": args.candidate, "winner": verdict},
                       verdict, args.json)
    election = _load_election(args.file)
    scores = all_scores(election)
    low = min(scores.values())
    winners = [name for name in election.candidates if scores[name] == low]
    lines = [f"{name}: {scores[name]}" for name in election.candidates]
    lines.append("winners: " + " ".join(winners))
    _emit({"command": "winner", "scores": scores, "winners": winners}, lines, args.json)
    return EXIT_OK


def _cmd_ranking(args) -> int:
    election = _load_election(args.file)
    for name in (args.candidate, args.other):
        _require_candidate(election, name, args.file)
    verdict = ranks_at_least(election, args.candidate, args.other)
    return _decide({"command": "ranking", "first": args.candidate, "second": args.other,
                    "ranks_at_least": verdict}, verdict, args.json)


def _cmd_2er(args) -> int:
    left = _load_triple(args.left)
    right = _load_triple(args.right)
    verdict = two_election_ranking(left, right)
    return _decide({"command": "2er", "left": args.left, "right": args.right, "member": verdict},
                   verdict, args.json)


def _cmd_oracle(args) -> int:
    found = score_oracle(_load_designated(args.file, args.candidate))
    lines = [f"score: {found}" if found is not None else f"unknown (cap {DEFAULT_ORACLE_CAP} exceeded)"]
    _emit(
        {"command": "oracle", "candidate": args.candidate, "score": found,
         "cap": DEFAULT_ORACLE_CAP},
        lines,
        args.json,
    )
    return EXIT_OK


def _read_matching(path: str) -> object:
    try:
        return parse_matching(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"unreadable: {exc}"  # totalized: malformed maps through normalization


def _shape(election: Election, **fields) -> dict:
    return {"candidates": len(election.candidates), "voters": election.n, **fields}


def _size(election: Election) -> str:
    return f"{len(election.candidates)} candidates, {election.n} voters"


# A reduce builder maps (kind, inputs) to the elections to write, keyed by file
# suffix and paired with their designated candidate (or None), the sidecar
# info, the extra JSON fields and the summary line.


def _reduce_3dm(kind: str, inputs: list[str]):
    if len(inputs) != 1:
        raise ValueError("reduce 3dm takes exactly one .3dm file")
    reduced, info = build_reduction(_read_matching(inputs[0]))
    election, designated = reduced.triple.election, reduced.triple.designated
    extra = _shape(election, threshold=reduced.threshold, designated=designated)
    return ({".dodg": (election, designated)}, info, extra,
            f"{_size(election)}, threshold {reduced.threshold}")


def _reduce_sum(kind: str, inputs: list[str]):
    total, info = build_sum([_load_triple(ref) for ref in inputs])
    return ({".dodg": (total.election, total.designated)}, info,
            _shape(total.election, designated=total.designated),
            f"{_size(total.election)}, designated {total.designated}")


def _reduce_merge(kind: str, inputs: list[str]):
    """merge, merge-prime, and the totalized 2er-to-ranking/2er-to-winner."""
    if len(inputs) != 2:
        raise ValueError(f"reduce {kind} takes exactly two file:candidate inputs")
    try:
        instance, info = build_merge(*map(_load_triple, inputs))
    except ValueError:  # the 2er kinds map invalid pairs to the sentinel
        if kind.startswith("merge"):
            raise
        return ({}, {"kind": kind, "sentinel": True}, {"sentinel": True},
                "sentinel (input is not a valid two-election instance)")
    election = instance.election
    summary = _size(election)
    if kind in ("merge", "2er-to-ranking"):
        designated = None
        extra = _shape(election, first=instance.first, second=instance.second)
        if kind == "merge":
            summary += f", comparing {instance.first} against {instance.second}"
    else:
        designated = instance.first
        extra = _shape(election, designated=designated)
        if kind == "merge-prime":
            summary += f", designated {designated}"
    return {".dodg": (election, designated)}, dict(info, kind=kind), extra, summary


def _reduce_wagner(kind: str, inputs: list[str]):
    instance, info = build_parity_combiner([_read_matching(path) for path in inputs])
    left, right = instance.left, instance.right
    files = {".left.dodg": (left.election, left.designated),
             ".right.dodg": (right.election, right.designated)}
    extra = {"left": _shape(left.election, designated=left.designated),
             "right": _shape(right.election, designated=right.designated)}
    return files, info, extra, f"left: {_size(left.election)}; right: {_size(right.election)}"


_REDUCERS = {
    "3dm": _reduce_3dm,
    "sum": _reduce_sum,
    "merge": _reduce_merge,
    "merge-prime": _reduce_merge,
    "wagner-g": _reduce_wagner,
    "2er-to-ranking": _reduce_merge,
    "2er-to-winner": _reduce_merge,
}


def _cmd_reduce(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    files, info, extra, summary = _REDUCERS[args.kind](args.kind, args.inputs)
    written = []
    for suffix, (election, designated) in files.items():
        path = out.with_suffix(suffix)
        header = f"# designated: {designated}\n" if designated is not None else ""
        path.write_text(header + serialize_election(election), encoding="utf-8")
        written.append(str(path))
    sidecar = out.with_suffix(".json")
    sidecar.write_text(json.dumps(info, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    written.append(str(sidecar))
    payload = {"command": "reduce", "kind": args.kind, "outputs": written, **extra}
    _emit(payload, [summary] + [f"wrote {path}" for path in written], args.json)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    config = RunConfig(seed=args.seed, trials=args.trials)
    results = run_suite(args.suite, config)
    lines = []
    fixture_paths: list[str] = []
    for check in results:
        status = "pass" if check.passed else "FAIL"
        detail = f" — {check.detail}" if check.detail else ""
        lines.append(f"{status} {check.name} ({check.checked} checks){detail}")
        if not check.passed:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            for suffix, text in check.fixtures.items():
                path = out_dir / f"{args.suite}-{check.name}-{suffix}"
                path.write_text(text, encoding="utf-8")
                fixture_paths.append(str(path))
                lines.append(f"  counterexample written to {path}")
    all_passed = all(check.passed for check in results)
    payload = {
        "command": "verify",
        "suite": args.suite,
        "config": {"seed": config.seed, "trials": config.trials},
        "results": [
            {"name": c.name, "passed": c.passed, "checked": c.checked, "detail": c.detail}
            for c in results
        ],
        "passed": all_passed,
        "counterexamples": fixture_paths,
    }
    _emit(payload, lines, args.json)
    return EXIT_OK if all_passed else EXIT_VIOLATION


_HANDLERS = {
    "score": _cmd_score,
    "winner": _cmd_winner,
    "ranking": _cmd_ranking,
    "2er": _cmd_2er,
    "oracle": _cmd_oracle,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN


def run() -> None:
    # a closed stdout ends the command as it ends `cat`: by SIGPIPE (status
    # 141 in the shell), which Python ignores by default
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
