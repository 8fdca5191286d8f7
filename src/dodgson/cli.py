"""Command-line front end.

Exit codes follow a scripting convention: 0 for success (and true decisions),
1 for false decisions, 2 for parse or validation problems, 3 for a property
violation found by ``verify``.

Designated candidates are never stored in .dodg files; they are passed as
``-c`` flags or ``file:candidate`` arguments so one election file can serve
many queries.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .elections import DodgsonTriple, parse_election, serialize_election
from .gadgets import (
    TwoERInstance,
    build_merge,
    build_parity_combiner,
    build_reduction,
    build_sum,
    merge_prime,
)
from .matching import parse_matching
from .scoring import (
    DEFAULT_ORACLE_CAP,
    DEFAULT_STATE_CAP,
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

REDUCE_KINDS = (
    "3dm",
    "sum",
    "merge",
    "merge-prime",
    "wagner-g",
    "2er-to-ranking",
    "2er-to-winner",
)


class _Input(ValueError):
    """Wraps anything that should surface as exit code 2."""


def _load_election(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Input(f"cannot read {path}: {exc}") from None
    return parse_election(text)


def _load_triple(ref: str) -> DodgsonTriple:
    path, sep, candidate = ref.rpartition(":")
    if not sep or not path:
        raise _Input(f"expected 'file:candidate', got {ref!r}")
    election = _load_election(path)
    if candidate not in election.candidates:
        raise _Input(f"unknown candidate {candidate!r} in {path}")
    return DodgsonTriple(election, candidate)


def _require_candidate(election, name: str, path: str):
    if name not in election.candidates:
        raise _Input(f"unknown candidate {name!r} in {path}")


def _emit(payload: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0, help="base seed for random trials")
    parser.add_argument("--trials", type=int, default=25, help="random trials per property")
    parser.add_argument(
        "--state-cap", type=int, default=DEFAULT_STATE_CAP,
        help="cap on the search states remembered as too costly",
    )
    parser.add_argument(
        "--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP,
        help="depth cap for the breadth-first oracle",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dodgson",
        description="Exact analysis of Dodgson elections and their gadget constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="Dodgson score of one candidate")
    p.add_argument("file")
    p.add_argument("-c", "--candidate", required=True)
    p.add_argument("--at-most", type=int, default=None, metavar="K",
                   help="decide Score <= K instead of computing the score")
    p.add_argument("--witness", action="store_true", help="also print a witness allocation")
    _common_flags(p)

    p = sub.add_parser("winner", help="Dodgson winners, or one candidate's winner status")
    p.add_argument("file")
    p.add_argument("-c", "--candidate")
    _common_flags(p)

    p = sub.add_parser("ranking", help="does one candidate tie-or-defeat another?")
    p.add_argument("file")
    p.add_argument("-c", "--candidate", required=True)
    p.add_argument("-d", "--other", required=True)
    _common_flags(p)

    p = sub.add_parser("2er", help="compare designated candidates of two elections")
    p.add_argument("left", help="file:candidate")
    p.add_argument("right", help="file:candidate")
    _common_flags(p)

    p = sub.add_parser("oracle", help="breadth-first sequential-switch oracle (desk scale)")
    p.add_argument("file")
    p.add_argument("-c", "--candidate", required=True)
    _common_flags(p)

    p = sub.add_parser("reduce", help="run a gadget construction and write its output")
    p.add_argument("kind", choices=REDUCE_KINDS)
    p.add_argument("inputs", nargs="+",
                   help=".3dm file(s) for 3dm/wagner-g; file:candidate pairs otherwise")
    p.add_argument("-o", "--out", default="out", help="output path prefix (default: out)")
    _common_flags(p)

    p = sub.add_parser("verify", help="replay a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES,
                   help="3: reduction score gap; 4: sum additivity; "
                        "6: merge laws; wagner: parity law; theorems: end-to-end reductions")
    p.add_argument("-o", "--out", default=".", help="directory for counterexample fixtures")
    _common_flags(p)

    return parser


def _cmd_score(args) -> int:
    election = _load_election(args.file)
    _require_candidate(election, args.candidate, args.file)
    triple = DodgsonTriple(election, args.candidate)
    if args.at_most is not None:
        if args.at_most < 0:
            raise _Input("--at-most must be non-negative")
        verdict = score_decision(triple, args.at_most, state_cap=args.state_cap)
        _emit(
            {"command": "score", "candidate": args.candidate, "at_most": args.at_most,
             "decision": verdict},
            [str(verdict).lower()],
            args.json,
        )
        return EXIT_OK if verdict else EXIT_FALSE
    result = score_exact(triple, state_cap=args.state_cap)
    lines = [f"score: {result.score}"]
    payload = {"command": "score", "candidate": args.candidate, "score": result.score}
    if args.witness:
        lines.append("witness: " + " ".join(map(str, result.witness)))
        payload["witness"] = list(result.witness)
    _emit(payload, lines, args.json)
    return EXIT_OK


def _cmd_winner(args) -> int:
    election = _load_election(args.file)
    if args.candidate is not None:
        _require_candidate(election, args.candidate, args.file)
        verdict = is_winner(DodgsonTriple(election, args.candidate), state_cap=args.state_cap)
        _emit(
            {"command": "winner", "candidate": args.candidate, "winner": verdict},
            [str(verdict).lower()],
            args.json,
        )
        return EXIT_OK if verdict else EXIT_FALSE
    scores = all_scores(election, state_cap=args.state_cap)
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
    verdict = ranks_at_least(election, args.candidate, args.other, state_cap=args.state_cap)
    _emit(
        {"command": "ranking", "first": args.candidate, "second": args.other,
         "ranks_at_least": verdict},
        [str(verdict).lower()],
        args.json,
    )
    return EXIT_OK if verdict else EXIT_FALSE


def _cmd_2er(args) -> int:
    left = _load_triple(args.left)
    right = _load_triple(args.right)
    verdict = two_election_ranking(left, right, state_cap=args.state_cap)
    _emit(
        {"command": "2er", "left": args.left, "right": args.right, "member": verdict},
        [str(verdict).lower()],
        args.json,
    )
    return EXIT_OK if verdict else EXIT_FALSE


def _cmd_oracle(args) -> int:
    election = _load_election(args.file)
    _require_candidate(election, args.candidate, args.file)
    found = score_oracle(DodgsonTriple(election, args.candidate), args.oracle_cap)
    lines = [f"score: {found}" if found is not None else f"unknown (cap {args.oracle_cap} exceeded)"]
    _emit(
        {"command": "oracle", "candidate": args.candidate, "score": found,
         "cap": args.oracle_cap},
        lines,
        args.json,
    )
    return EXIT_OK


def _write_election_file(path: Path, triple_or_election, designated: str | None) -> None:
    election = getattr(triple_or_election, "election", triple_or_election)
    text = serialize_election(election)
    if designated is not None:
        text = f"# designated: {designated}\n" + text
    path.write_text(text, encoding="utf-8")


def _cmd_reduce(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    kind = args.kind
    written: list[str] = []
    summary: list[str] = []
    info: dict

    if kind == "3dm":
        if len(args.inputs) != 1:
            raise _Input("reduce 3dm takes exactly one .3dm file")
        try:
            value: object = parse_matching(Path(args.inputs[0]).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            value = f"unreadable: {exc}"  # totalized: malformed maps through normalization
        reduced, info = build_reduction(value)
        election = reduced.triple.election
        dodg = out.with_suffix(".dodg")
        _write_election_file(dodg, reduced.triple, reduced.triple.designated)
        written.append(str(dodg))
        summary.append(
            f"{len(election.candidates)} candidates, {election.n} voters, "
            f"threshold {reduced.threshold}"
        )
        payload_extra = {
            "candidates": len(election.candidates),
            "voters": election.n,
            "threshold": reduced.threshold,
            "designated": reduced.triple.designated,
        }
    elif kind == "sum":
        triples = [_load_triple(ref) for ref in args.inputs]
        total, info = build_sum(triples)
        dodg = out.with_suffix(".dodg")
        _write_election_file(dodg, total, total.designated)
        written.append(str(dodg))
        summary.append(
            f"{len(total.election.candidates)} candidates, {total.election.n} voters, "
            f"designated {total.designated}"
        )
        payload_extra = {
            "candidates": len(total.election.candidates),
            "voters": total.election.n,
            "designated": total.designated,
        }
    elif kind in ("merge", "merge-prime"):
        if len(args.inputs) != 2:
            raise _Input(f"reduce {kind} takes exactly two file:candidate inputs")
        t1, t2 = (_load_triple(ref) for ref in args.inputs)
        instance, info = build_merge(t1, t2)
        dodg = out.with_suffix(".dodg")
        if kind == "merge":
            _write_election_file(dodg, instance.election, None)
            summary.append(
                f"{len(instance.election.candidates)} candidates, {instance.election.n} voters, "
                f"comparing {instance.first} against {instance.second}"
            )
            payload_extra = {"first": instance.first, "second": instance.second}
        else:
            designated = merge_prime(t1, t2).designated
            _write_election_file(dodg, instance.election, designated)
            summary.append(
                f"{len(instance.election.candidates)} candidates, {instance.election.n} voters, "
                f"designated {designated}"
            )
            payload_extra = {"designated": designated}
            info = dict(info, kind="merge-prime")
        written.append(str(dodg))
        payload_extra.update(
            {"candidates": len(instance.election.candidates), "voters": instance.election.n}
        )
    elif kind == "wagner-g":
        values = []
        for path in args.inputs:
            try:
                values.append(parse_matching(Path(path).read_text(encoding="utf-8")))
            except (OSError, ValueError) as exc:
                values.append(f"unreadable: {exc}")
        try:
            instance, info = build_parity_combiner(values)
        except ValueError as exc:
            raise _Input(str(exc)) from None
        left = out.parent / (out.name + ".left.dodg")
        right = out.parent / (out.name + ".right.dodg")
        _write_election_file(left, instance.left, instance.left.designated)
        _write_election_file(right, instance.right, instance.right.designated)
        written.extend([str(left), str(right)])
        summary.append(
            f"left: {len(instance.left.election.candidates)} candidates, "
            f"{instance.left.election.n} voters; "
            f"right: {len(instance.right.election.candidates)} candidates, "
            f"{instance.right.election.n} voters"
        )
        payload_extra = {
            "left": {"candidates": len(instance.left.election.candidates),
                     "voters": instance.left.election.n,
                     "designated": instance.left.designated},
            "right": {"candidates": len(instance.right.election.candidates),
                      "voters": instance.right.election.n,
                      "designated": instance.right.designated},
        }
    else:  # 2er-to-ranking / 2er-to-winner
        if len(args.inputs) != 2:
            raise _Input(f"reduce {kind} takes exactly two file:candidate inputs")
        try:
            t1, t2 = (_load_triple(ref) for ref in args.inputs)
            pair: object = TwoERInstance(t1, t2)
        except (ValueError, _Input):
            pair = None  # totalized: invalid pairs map to the sentinel
        if pair is None:
            info = {"kind": kind, "sentinel": True}
            summary.append("sentinel (input is not a valid two-election instance)")
            payload_extra = {"sentinel": True}
        else:
            assert isinstance(pair, TwoERInstance)
            instance, info = build_merge(pair.left, pair.right)
            info = dict(info, kind=kind)
            dodg = out.with_suffix(".dodg")
            if kind == "2er-to-ranking":
                _write_election_file(dodg, instance.election, None)
                payload_extra = {"first": instance.first, "second": instance.second}
            else:
                _write_election_file(dodg, instance.election, instance.first)
                payload_extra = {"designated": instance.first}
            written.append(str(dodg))
            summary.append(
                f"{len(instance.election.candidates)} candidates, {instance.election.n} voters"
            )
            payload_extra.update(
                {"candidates": len(instance.election.candidates), "voters": instance.election.n}
            )

    sidecar = out.with_suffix(".json")
    sidecar.write_text(json.dumps(info, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    written.append(str(sidecar))
    payload = {"command": "reduce", "kind": kind, "outputs": written}
    payload.update(payload_extra)
    _emit(payload, summary + [f"wrote {path}" for path in written], args.json)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = RunConfig(
        seed=args.seed, trials=args.trials,
        state_cap=args.state_cap, oracle_cap=args.oracle_cap,
    )
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
        "config": {"seed": config.seed, "trials": config.trials,
                   "state_cap": config.state_cap, "oracle_cap": config.oracle_cap},
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


def run() -> None:
    sys.exit(main())
