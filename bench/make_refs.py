"""One-time generator of the benchmark's op pools and reference answers.

    PYTHONPATH=src python3 bench/make_refs.py gadget|crowd|oracle|cli

For each workload it builds a pool of items from fixed pool seeds, computes
the exact score of every scored (election, candidate) with the Bartholdi,
Tovey & Trick voter-type integer program (``btt.py``, SciPy ``milp``), checks
those scores against the constructions' contracts and against the breadth-first
oracle where it reaches, and derives every expected answer from them.  It then
times each op once on the current source with a generous cap and stores, per
op, that time, its status and the op's time limit.  Benchmark runs read the
stored file and never call SciPy.

Limits keep every op far from its limit at the commit the pool was timed on:
an op that ended (answered or raised) in ``s`` seconds gets
``max(LIMIT_MIN, 4 * s)``; an op that did not end within the cap gets
``cap / 4``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import btt  # noqa: E402
import corpus  # noqa: E402
from dodgson import (  # noqa: E402
    CANONICAL_NO,
    CANONICAL_YES,
    DodgsonTriple,
    Election,
    PreferenceOrder,
    VoterProfile,
    deficit_vector,
    has_matching,
    merge,
    parity_combine,
    reduce_3dm,
    score_oracle,
    serialize_election,
    serialize_matching,
)
from dodgson.gadgets import build_merge, build_parity_combiner, build_reduction, build_sum  # noqa: E402
from dodgson.verify import (  # noqa: E402
    RunConfig,
    enumerate_instances,
    merge_corpus,
    random_election,
    random_matching,
    random_triple,
    trial_rng,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CAP = {"gadget": 4.0, "crowd": 4.0, "oracle": 60.0, "cli": 30.0}
LIMIT_MIN = {"gadget": 1.0, "crowd": 1.0, "oracle": 1.0, "cli": 5.0}


def _text(triple: DodgsonTriple) -> list:
    return [serialize_election(triple.election), triple.designated]


class Pool:
    def __init__(self, workload: str):
        self.workload = workload
        self.items: dict[str, dict] = {}
        self.ops: list[dict] = []
        self.built: dict[str, dict] = {}
        self.scores: dict[str, dict[str, int]] = {}  # by election digest

    def add_item(self, item_id: str, recipe: dict) -> dict:
        recipe = dict(recipe, id=item_id)
        built = corpus.build_item(recipe, corpus.Caller())
        recipe["sha256"] = {k: corpus.sha256(serialize_election(e)) for k, e in built.items()}
        self.items[item_id] = recipe
        self.built[item_id] = built
        return built

    def score(self, item_id: str, key: str, names=None) -> dict[str, int]:
        """Integer-program scores of ``names`` (default: every candidate)."""
        election = self.built[item_id][key]
        known = self.scores.setdefault(self.items[item_id]["sha256"][key], {})
        orders = btt.election_orders(election)
        for name in election.candidates if names is None else names:
            if name not in known:
                known[name] = btt.btt_score(orders, election.candidates, name)
        return known if names is None else {name: known[name] for name in names}

    def add(self, group: str, item_id: str, kind: str, **args) -> None:
        op = {"id": f"{item_id}.{kind}.{len(self.ops)}", "group": group, "item": item_id, "kind": kind}
        op.update(args)
        if kind != "cli":
            c = args.get("c")
            if kind == "two_er":
                (lk, lc), (rk, rc) = args["left"], args["right"]
                op["expect"] = self.score(item_id, lk, [lc])[lc] <= self.score(item_id, rk, [rc])[rc]
            elif kind == "winner":
                scores = self.score(item_id, args["e"])
                op["expect"] = scores[c] <= min(scores.values())
            else:
                scores = self.score(item_id, args["e"], [c] + ([args["d"]] if "d" in args else []))
                if kind in ("exact", "oracle"):
                    op["expect"] = scores[c]
                elif kind == "decision":
                    op["expect"] = scores[c] <= args["budget"]
                elif kind == "ranks":
                    op["expect"] = scores[c] <= scores[args["d"]]
            if c is not None:
                op["ref_score"] = self.score(item_id, args["e"], [c])[c]
        self.ops.append(op)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"reference cross-check failed: {message}")


def _btt(triple: DodgsonTriple) -> int:
    return btt.btt_score(btt.election_orders(triple.election), triple.election.candidates, triple.designated)


def _check_oracle(triple: DodgsonTriple, label: str) -> None:
    found = score_oracle(triple, cap=30)
    _check(found == _btt(triple), f"{label}: oracle {found}, integer program {_btt(triple)}")


# --- gadget ---------------------------------------------------------------------


def _scored_ops(pool: Pool, item_id: str, key: str, prefix: str, rng, opponents: int, skip=()) -> None:
    """Opponent score ops: a pool-seeded sample of the other candidates."""
    names = [n for n in pool.built[item_id][key].candidates if n not in skip]
    for name in sorted(rng.sample(names, min(opponents, len(names)))):
        pool.add(f"{prefix}.opponent", item_id, "exact", e=key, c=name)


def gadget_pool() -> Pool:
    pool = Pool("gadget")
    rng = random.Random("pool:gadget")
    for label, instance in (("yes", CANONICAL_YES), ("no", CANONICAL_NO)):
        item = f"3dm-{label}"
        pool.add_item(item, {"kind": "3dm", "matching": serialize_matching(instance)})
        pool.add("fixed.3dm", item, "exact", e="red", c="c")
        pool.add("fixed.3dm", item, "decision", e="red", c="c", budget=3 * instance.q)
        pool.add("fixed.3dm", item, "winner", e="red", c="c")
    for i in range(16):
        instance = random_matching(rng, 3, rng.randint(2, 12))
        item = f"3dm-{i}"
        pool.add_item(item, {"kind": "3dm", "matching": serialize_matching(instance)})
        scores = pool.score(item, "red")
        _check(scores["c"] == 9 + (0 if has_matching(instance) else 1), f"{item} 3DM score gap")
        pool.add("3dm.exact", item, "exact", e="red", c="c")
        pool.add("3dm.decision", item, "decision", e="red", c="c", budget=9)
        pool.add("3dm.winner", item, "winner", e="red", c="c")
        others = [n for n in sorted(scores) if n != "c"]
        for name in rng.sample(others, 2):
            pool.add("3dm.ranks", item, "ranks", e="red", c="c", d=name)
        _scored_ops(pool, item, "red", "3dm", rng, 8, skip=("c",))
    for i in range(10):
        blocks = [random_triple(rng, ("a", "b", "c", "d"), max_candidates=4) for _ in range(3)]
        item = f"sum-{i}"
        pool.add_item(item, {"kind": "sum", "blocks": [_text(t) for t in blocks]})
        want = sum(_btt(t) for t in blocks)
        _check(pool.score(item, "sum", ["c"])["c"] == want, f"{item} sum additivity")
        for t in blocks:
            _check_oracle(t, f"{item} block")
        pool.add("sum.exact", item, "exact", e="sum", c="c")
        pool.add("sum.winner", item, "winner", e="sum", c="c")
        _scored_ops(pool, item, "sum", "sum", rng, 6, skip=("c",))
    for k, count in ((1, 6), (2, 4)):
        for i in range(count):
            inputs = [random_matching(rng, 2, rng.randint(2, 4)) for _ in range(2 * k)]
            item = f"parity{k}-{i}"
            pool.add_item(item, {"kind": "parity", "inputs": [serialize_matching(x) for x in inputs]})
            members = sum(has_matching(x) for x in inputs)
            left, right = pool.score(item, "left", ["c"])["c"], pool.score(item, "right", ["d"])["d"]
            _check((left <= right) == (members % 2 == 1), f"{item} parity law")
            pool.add(f"parity{k}.two_er", item, "two_er", left=["left", "c"], right=["right", "d"])
            pool.add(f"parity{k}.exact", item, "exact", e="left", c="c")
            pool.add(f"parity{k}.exact", item, "exact", e="right", c="d")
    pairs = [
        (random_triple(rng, ("a1", "a2", "a3"), 3), random_triple(rng, ("z1", "z2", "z3"), 3))
        for _ in range(12)
    ]
    one = Election(("a1", "a2"), VoterProfile(((PreferenceOrder(("a2", "a1")), 1),)))
    cycle = Election(
        ("z1", "z2", "z3"),
        VoterProfile.from_orders(
            [PreferenceOrder(p) for p in (("z1", "z2", "z3"), ("z2", "z3", "z1"), ("z3", "z1", "z2"))]
        ),
    )
    pairs.append((DodgsonTriple(one, "a1"), DodgsonTriple(cycle, "z1")))
    for i, (t1, t2) in enumerate(pairs):
        item = "defect1" if i == len(pairs) - 1 else f"merge-{i}"
        prefix = "fixed.defect1" if item == "defect1" else "merge"
        pool.add_item(item, {"kind": "merge", "t1": _text(t1), "t2": _text(t2)})
        scores = pool.score(item, "merge")
        _check(scores["c"] == _btt(t1) + 1 and scores["d"] == _btt(t2) + 1, f"{item} merge +1")
        _check(pool.items[item]["sha256"]["prime"] == pool.items[item]["sha256"]["merge"],
               f"{item} merge' election")
        _check(all(v > max(scores["c"], scores["d"]) for n, v in scores.items() if n not in "cd"),
               f"{item} merge dominance")
        for t in (t1, t2):
            _check_oracle(t, f"{item} input")
        pool.add(f"{prefix}.ranks", item, "ranks", e="merge", c="c", d="d")
        pool.add(f"{prefix}.winner", item, "winner", e="prime", c="c")
        pool.add(f"{prefix}.exact", item, "exact", e="prime", c="c")
        pool.add(f"{prefix}.exact", item, "exact", e="merge", c="d")
        skip = ("c", "d")
        if item == "defect1":
            for name in sorted(scores):
                if name not in skip:
                    pool.add("fixed.defect1.opponent", item, "exact", e="merge", c=name)
        else:
            _scored_ops(pool, item, "merge", "merge", rng, 8, skip=skip)
    return pool


# --- crowd ----------------------------------------------------------------------

DEFECT3_TWO = "candidates: a b\n2001: b<a\n1000: a<b\n"
DEFECT3_FOUR = (
    "candidates: a b c d\n1000: a<b<c<d\n1000: b<c<d<a\n1000: c<d<a<b\n1000: d<a<b<c\n"
)


def _crowd_ops(pool: Pool, item: str, prefix: str, candidates: list[str]) -> None:
    scores = pool.score(item, "e")
    for c in candidates:
        s = scores[c]
        pool.add(f"{prefix}.exact", item, "exact", e="e", c=c)
        pool.add(f"{prefix}.decision", item, "decision", e="e", c=c, budget=s)
        if s:
            pool.add(f"{prefix}.decision", item, "decision", e="e", c=c, budget=s - 1)
        pool.add(f"{prefix}.winner", item, "winner", e="e", c=c)
        other = next(n for n in sorted(scores) if n != c)
        pool.add(f"{prefix}.ranks", item, "ranks", e="e", c=c, d=other)


def crowd_pool() -> Pool:
    pool = Pool("crowd")
    rng = random.Random("pool:crowd")
    pool.add_item("defect3-two", {"kind": "text", "text": DEFECT3_TWO})
    pool.add("fixed.defect3", "defect3-two", "decision", e="e", c="b", budget=600)
    pool.add("fixed.defect3", "defect3-two", "exact", e="e", c="b")
    pool.add_item("defect3-four", {"kind": "text", "text": DEFECT3_FOUR})
    pool.add("fixed.defect3", "defect3-four", "exact", e="e", c="b")
    pool.add("fixed.defect3", "defect3-four", "winner", e="e", c="a")
    pool.add("fixed.defect3", "defect3-four", "decision", e="e", c="a", budget=1002)
    sizes = (1001, 3001, 10001, 30001, 100001)
    i = 0
    for n in sizes:
        for landslide in (0.0, 0.0, 0.25, 0.4):
            m = rng.randint(2, 6)
            share = round(landslide * rng.uniform(0.5, 1.0), 3)
            recipe = {"kind": "ic", "m": m, "n": n, "seed": f"crowd:{i}", "landslide": share}
            item = f"crowd-{i}"
            built = pool.add_item(item, recipe)
            i += 1
            election = built["e"]
            deficits = {
                c: sum(deficit_vector(DodgsonTriple(election, c)).values()) for c in election.candidates
            }
            leader = min(sorted(deficits), key=deficits.get)
            other = rng.choice([c for c in sorted(deficits) if c != leader])
            _crowd_ops(pool, item, "crowd", [leader, other])
    return pool


# --- oracle ---------------------------------------------------------------------


def oracle_pool() -> Pool:
    import itertools

    pool = Pool("oracle")
    orders = [PreferenceOrder(p) for p in itertools.permutations(("a", "b", "c"))]
    k = 0
    for voters in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(orders, voters):
            election = Election(("a", "b", "c"), VoterProfile.from_orders(combo))
            item = f"abc-{k}"
            k += 1
            pool.add_item(item, {"kind": "text", "text": serialize_election(election)})
            for c in "abc":
                pool.add("fixed.exhaustive", item, "oracle", e="e", c=c)
    rng = random.Random("pool:oracle")
    for i in range(100):
        election = random_election(rng, ("a", "b", "c", "d"), 5)
        item = f"abcd-{i}"
        pool.add_item(item, {"kind": "text", "text": serialize_election(election)})
        for c in "abcd":
            pool.add("random4x5", item, "oracle", e="e", c=c)
    # The oracle on the canonical no-instance's reduction takes 13-17 s; one
    # such op per pass leaves no room to repeat passes within a run, and
    # single-pass figures swung by more than a quarter on a 2-core host.  Its
    # score is still checked here; the yes-instance (2-3 s) stays in the pool.
    for label, instance in (("yes", CANONICAL_YES), ("no", CANONICAL_NO)):
        item = f"3dm-{label}"
        pool.add_item(item, {"kind": "3dm", "matching": serialize_matching(instance)})
        _check(pool.score(item, "red", ["c"])["c"] == 6 + (0 if label == "yes" else 1), f"{item} gap")
        if label == "yes":
            pool.add("fixed.reduction", item, "oracle", e="red", c="c")
    return pool


# --- cli ------------------------------------------------------------------------

MALFORMED = {
    "bad_header.dodg": "candidate: a b\n1: a<b\n",
    "bad_mult.dodg": "candidates: a b\nx: a<b\n",
}


def _reduce_fields(kind: str, t1, t2, matchings) -> dict:
    if kind == "3dm":
        reduced, _ = build_reduction(matchings[0])
        e = reduced.triple.election
        q, m = matchings[0].q, len(matchings[0].triples)
        _check(len(e.candidates) == 3 + 3 * q and e.n == 2 * m - 1, "3dm shape formula")
        return {"candidates": len(e.candidates), "voters": e.n, "threshold": 3 * q,
                "designated": "c"}
    if kind == "sum":
        total, _ = build_sum([t1, t2])
        sizes = [(len(t.election.candidates), t.n) for t in (t1, t2)]
        _check(total.n == 2 * sum(n for _, n in sizes) - 1, "sum voter formula")
        _check(len(total.election.candidates)
               == 1 + sum(c - 1 for c, _ in sizes) + sum(c * n for c, n in sizes), "sum candidate formula")
        return {"candidates": len(total.election.candidates), "voters": total.n, "designated": "c"}
    if kind == "wagner-g":
        pair, _ = build_parity_combiner(matchings)
        return {side: {"candidates": len(t.election.candidates), "voters": t.n,
                       "designated": t.designated}
                for side, t in (("left", pair.left), ("right", pair.right))}
    instance, _ = build_merge(t1, t2)
    e = instance.election
    big, small = (t1, t2) if t1.n >= t2.n else (t2, t1)
    _check(e.n == 2 * big.n + small.n + 1, "merge voter formula")
    fields = {"candidates": len(e.candidates), "voters": e.n}
    if kind in ("merge", "2er-to-ranking"):
        fields.update(first="c", second="d")
    else:
        fields["designated"] = "c"
    return fields


def expected_suite(suite: str, seed: int, trials: int) -> bool:
    """Does ``verify <suite>`` pass?  Replays the suite's own trial inputs and
    judges each law with integer-program scores."""
    if suite == "3":
        instances = list(enumerate_instances(2, (2, 4)))
        for i in range(trials):
            rng = trial_rng(seed, "q3", i)
            instances.append(random_matching(rng, 3, rng.randint(2, 12)))
        return all(
            _btt(reduce_3dm(x).triple) == 3 * x.q + (0 if has_matching(x) else 1) for x in instances
        )
    if suite == "4":
        for i in range(trials):
            rng = trial_rng(seed, "sum", i)
            parts = [random_triple(rng, ("a", "b", "c", "d"), max_candidates=4)
                     for _ in range(rng.randint(1, 3))]
            total, info = build_sum(parts)
            if total.n != 2 * sum(p.n for p in parts) - 1:
                return False
            if info["separators"]["s"] != sum(len(p.election.candidates) * p.n for p in parts):
                return False
            if _btt(total) != sum(_btt(p) for p in parts):
                return False
        return True
    for t1, t2 in merge_corpus(RunConfig(seed=seed, trials=trials)):
        election = merge(t1, t2).election
        scores = btt.all_btt_scores(election)
        s1, s2 = _btt(t1), _btt(t2)
        others = [v for name, v in scores.items() if name not in ("c", "d")]
        if suite == "6":
            if election.n != 2 * max(t1.n, t2.n) + min(t1.n, t2.n) + 1 or election.n % 2:
                return False
            if (scores["c"], scores["d"]) != (s1 + 1, s2 + 1):
                return False
            if any(v <= scores["c"] for v in others):
                return False
        else:
            member = s1 <= s2
            if (scores["c"] <= scores["d"]) != member:
                return False
            if (scores["c"] <= min(scores.values())) != member:
                return False
    return True


def cli_pool() -> Pool:
    pool = Pool("cli")
    rng = random.Random("pool:cli")
    for i in range(12):
        t1 = random_triple(rng, ("a1", "a2", "a3"), 3)
        t2 = random_triple(rng, ("z1", "z2", "z3"), 3)
        while t2.designated == t1.designated:
            t2 = random_triple(rng, ("z1", "z2", "z3"), 3)
        matchings = [random_matching(rng, 2, rng.randint(2, 4)) for _ in range(2)]
        w = random_election(rng, ("a", "b", "c", "d"), 5)
        item = f"cli-{i}"
        files = {
            "f1.dodg": serialize_election(t1.election),
            "f2.dodg": serialize_election(t2.election),
            "w.dodg": serialize_election(w),
            "m1.3dm": serialize_matching(matchings[0]),
            "m2.3dm": serialize_matching(matchings[1]),
            **MALFORMED,
        }
        recipe = {"kind": "files", "files": files, "id": item, "sha256": {}}
        pool.items[item] = recipe
        work = "{work}"
        f1, f2 = f"{work}/f1.dodg:{t1.designated}", f"{work}/f2.dodg:{t2.designated}"
        vseed = rng.randrange(1000)

        def cli(group, argv, code, fields=None):
            pool.add(group, item, "cli", argv=argv, expect={"exit": code, "json": fields or {}})

        outs = {"3dm": "r3", "sum": "rs", "merge": "rm", "merge-prime": "rp", "wagner-g": "rw",
                "2er-to-ranking": "rr", "2er-to-winner": "rv"}
        for kind, out in outs.items():
            inputs = [f"{work}/m1.3dm"] if kind == "3dm" else (
                [f"{work}/m1.3dm", f"{work}/m2.3dm"] if kind == "wagner-g" else [f1, f2])
            fields = dict(_reduce_fields(kind, t1, t2, matchings), kind=kind)
            cli("cli.reduce", ["reduce", kind, *inputs, "-o", f"{work}/{out}", "--json"], 0, fields)
        q = matchings[0].q
        red = reduce_3dm(matchings[0]).triple
        s_red = _btt(red)
        _check(s_red == 3 * q + (0 if has_matching(matchings[0]) else 1), f"{item} 3dm gap")
        total = build_sum([t1, t2])[0]
        s_sum = _btt(total)
        _check(s_sum == _btt(t1) + _btt(t2), f"{item} sum additivity")
        merged = merge(t1, t2).election
        m_scores = btt.all_btt_scores(merged)
        _check(m_scores["c"] == _btt(t1) + 1 and m_scores["d"] == _btt(t2) + 1, f"{item} merge +1")
        pair = parity_combine(matchings)
        w_scores = btt.all_btt_scores(w)
        for c in w.candidates:
            _check_oracle(DodgsonTriple(w, c), f"{item} w")
        _check_oracle(t1, f"{item} f1")
        s1, s2 = _btt(t1), _btt(t2)

        def verdict(group, argv, answer, key):
            cli(group, argv, 0 if answer else 1, {key: answer})

        cli("cli.query", ["score", f"{work}/r3.dodg", "-c", "c", "--json"], 0, {"score": s_red})
        verdict("cli.query", ["score", f"{work}/r3.dodg", "-c", "c", "--at-most", str(3 * q), "--json"],
                s_red <= 3 * q, "decision")
        cli("cli.query", ["score", f"{work}/rs.dodg", "-c", "c", "--witness", "--json"], 0, {"score": s_sum})
        verdict("cli.query", ["ranking", f"{work}/rm.dodg", "-c", "c", "-d", "d", "--json"],
                m_scores["c"] <= m_scores["d"], "ranks_at_least")
        verdict("cli.query", ["winner", f"{work}/rp.dodg", "-c", "c", "--json"],
                m_scores["c"] <= min(m_scores.values()), "winner")
        verdict("cli.query", ["2er", f1, f2, "--json"], s1 <= s2, "member")
        verdict("cli.query", ["2er", f"{work}/rw.left.dodg:c", f"{work}/rw.right.dodg:d", "--json"],
                _btt(pair.left) <= _btt(pair.right), "member")
        low = min(w_scores.values())
        cli("cli.query", ["winner", f"{work}/w.dodg", "--json"], 0,
            {"scores": w_scores, "winners": [c for c in w.candidates if w_scores[c] == low]})
        verdict("cli.query", ["winner", f"{work}/w.dodg", "-c", "b", "--json"], w_scores["b"] == low, "winner")
        verdict("cli.query", ["ranking", f"{work}/w.dodg", "-c", "a", "-d", "c", "--json"],
                w_scores["a"] <= w_scores["c"], "ranks_at_least")
        verdict("cli.query", ["score", f"{work}/w.dodg", "-c", "d", "--at-most", str(max(w_scores["d"] - 1, 0)),
                              "--json"], w_scores["d"] == 0, "decision")
        cli("cli.query", ["oracle", f"{work}/w.dodg", "-c", "a", "--json"], 0, {"score": w_scores["a"]})
        cli("cli.query", ["oracle", f1.rsplit(":", 1)[0], "-c", t1.designated, "--json"], 0, {"score": s1})
        for suite, trials in (("3", 2), ("4", 4), ("6", 2), ("theorems", 2)):
            passed = expected_suite(suite, vseed, trials)
            cli("cli.verify", ["verify", suite, "--trials", str(trials), "--seed", str(vseed),
                               "-o", f"{work}/fixtures", "--json"], 0 if passed else 3, {"passed": passed})
        cli("cli.malformed", ["score", f"{work}/bad_header.dodg", "-c", "a"], 2)
        cli("cli.malformed", ["score", f"{work}/bad_mult.dodg", "-c", "a"], 2)
        cli("cli.malformed", ["winner", f"{work}/missing.dodg"], 2)
        cli("cli.malformed", ["ranking", f"{work}/w.dodg", "-c", "a", "-d", "nosuch"], 2)
        cli("cli.malformed", ["2er", f"{work}/f1.dodg", f2], 2)
        cli("cli.malformed", ["reduce", "merge", f1, "-o", f"{work}/bad"], 2)
    return pool


POOLS = {"gadget": gadget_pool, "crowd": crowd_pool, "oracle": oracle_pool, "cli": cli_pool}


def limit_for(workload: str, op: dict) -> float:
    if op["seed_status"] == "timeout":
        return CAP[workload] / 4
    return round(max(LIMIT_MIN[workload], 4 * op["seed_s"]), 2)


def time_ops(pool: Pool) -> None:
    """Time every op once on the current source; set its status and limit."""
    import shutil
    import tempfile

    cap = CAP[pool.workload]
    corpus.install_alarm()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    by_item: dict[str, dict] = {}
    work_root = Path(tempfile.mkdtemp(prefix="refs-", dir=ROOT / ".bench_work"))
    try:
        for n, op in enumerate(pool.ops):
            recipe = pool.items[op["item"]]
            if op["item"] not in by_item:
                if recipe["kind"] == "files":
                    work = work_root / op["item"]
                    work.mkdir()
                    for name, text in recipe["files"].items():
                        (work / name).write_text(text, encoding="utf-8")
                    by_item[op["item"]] = {"work": str(work.relative_to(ROOT))}
                else:
                    by_item[op["item"]] = corpus.materialize(
                        pool.built[op["item"]], recipe, corpus.Caller(), pool.workload == "crowd")
            ctx = {"root": str(ROOT), "env": env, **(by_item[op["item"]] if recipe["kind"] == "files" else {})}
            record = corpus.run_op(dict(op, limit_s=cap), by_item[op["item"]], ctx)
            if record["status"] == "wrong":
                raise SystemExit(f"{op['id']}: wrong verdict at generation: {record['detail']}")
            op["seed_status"] = record["status"]
            op["seed_s"] = round(record["elapsed"], 4)
            op["limit_s"] = limit_for(pool.workload, op)
            print(f"[{n + 1}/{len(pool.ops)}] {op['id']} {record['status']} {record['elapsed']:.3f}s",
                  file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def main() -> None:
    workload = sys.argv[1]
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    started = time.time()
    pool = POOLS[workload]()
    print(f"{workload}: {len(pool.items)} items, {len(pool.ops)} ops; references in "
          f"{time.time() - started:.1f}s", file=sys.stderr, flush=True)
    time_ops(pool)
    statuses = Counter(op["seed_status"] for op in pool.ops)
    out = {
        "workload": workload,
        "generated_with": {"python": sys.version.split()[0], "cap_s": CAP[workload],
                           "limit_min_s": LIMIT_MIN[workload]},
        "seed_statuses": dict(sorted(statuses.items())),
        "items": pool.items,
        "ops": pool.ops,
    }
    (HERE / "refs").mkdir(exist_ok=True)
    path = HERE / "refs" / f"{workload}.json"
    path.write_text(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {path} ({statuses})", file=sys.stderr)


if __name__ == "__main__":
    main()
