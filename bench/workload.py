"""One workload run, in its own process, started by ``run.py``.

    workload.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T
                --work DIR [--setup-only]

It samples the op list for the seed from the stored pool, builds the inputs
through the package's public API (the set-up), then runs whole passes of the
op list for about ``S`` seconds, one op at a time.  An op's verdict time is the
median of its runs in the run, on some workloads each scaled to a reference
host speed (see CALIBRATION_S), and the run's figures are taken over these.
With ``--trace 1`` it runs one untraced and one traced pass instead and
reports per-layer figures.  The result is one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402  (imports the package under test)

ALL = corpus.ALL

# Per workload: how many ops that timed out when the pool was timed are drawn
# per pass from each group (each costs its limit in wall time; groups named
# fixed.* hold the canonical instances and the known-defect inputs and are
# always run whole), and the speed tiers (from pool time in seconds, bin size,
# drawn at random) that the other ops are sampled by.
TIMEOUTS = {
    "gadget": {
        "fixed.3dm": ALL, "fixed.defect1.exact": ALL, "fixed.defect1.ranks": ALL,
        "fixed.defect1.winner": ALL, "fixed.defect1.opponent": 2,
        "3dm.opponent": 2, "sum.opponent": 2, "merge.opponent": 3,
        "parity2.exact": 1, "parity2.two_er": 1,
    },
    "crowd": {
        "fixed.defect3": ALL,
        "crowd.exact": 3, "crowd.ranks": 3, "crowd.winner": 2, "crowd.decision": 1,
    },
    "oracle": {"fixed.exhaustive": ALL, "fixed.reduction": ALL},
    "cli": {},
}
# Only ops far below the verdict median are drawn at random: a pool time is
# one sample, so a drawn op near the median could land on either side of it.
# On crowd and oracle the median lies among the cheapest ops, so none are
# drawn and the seed sets only the order.
TIERS = {
    "gadget": [(0.05, 16, False), (0.0005, 2, False), (0, 2, True)],
    "crowd": [(0.05, 6, False), (0.0005, 6, False), (0, 1, False)],
    "oracle": [(0.01, 8, False), (0.002, 2, False), (0, 4, False)],
}

# Per workload, (pool time in seconds, runs) tiers: each op of a pass runs as
# many times as the first tier whose time its pool time is below gives (once
# if none), at random points of the pass, and its verdict time is the median
# of its runs.  On oracle the pass time is mostly one 3-4 s op, and on gadget a
# few single 0.5-3 s ops would otherwise set a third of it.
REPEAT = {
    "gadget": [(0.05, 5), (10.0, 2)],
    "crowd": [(0.05, 9)],
    "oracle": [(10.0, 4)],
    "cli": [],
}

# The host is shared: its speed swings by half between phases from seconds to
# minutes long, and a run's share of slow phases moved the figures of runs of
# the same code by up to a third.  On the workloads in SCALED, whose ops are
# pure-Python search, a fixed piece of pure-Python work is timed just before
# and just after every run of an op, and the op's time is scaled by
# CALIBRATION_S over the mean of the two: the figures read as on a host where
# that work takes CALIBRATION_S, about its time on a 2-core Xeon VM with
# Python 3.11.  A failed op is still charged its limit unscaled.  The crowd
# ops, mostly text parsing in C, and the cli ops, run in child processes, did
# not slow down with that work, and scaling made their figures noisier.
SCALED = ("gadget", "oracle")
CALIBRATION_S = 0.0006


def load_refs(workload: str) -> dict:
    with open(HERE / "refs" / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def pick_ops(refs: dict, workload: str, seed: int) -> list[dict]:
    """The op list for a seed; CLI runs use one pool scenario, whole."""
    ops = refs["ops"]
    if workload == "cli":
        scenarios = sorted({op["item"] for op in ops})
        chosen = scenarios[seed % len(scenarios)]
        return [op for op in ops if op["item"] == chosen]
    return corpus.sample_ops(ops, TIMEOUTS[workload], TIERS[workload], seed)


def set_up(refs: dict, ops: list[dict], workload: str, work: Path, call: corpus.Caller) -> dict:
    items: dict[str, dict] = {}
    for op in ops:
        if op["item"] in items:
            continue
        recipe = refs["items"][op["item"]]
        if recipe["kind"] == "files":
            work.mkdir(parents=True, exist_ok=True)
            for name, text in recipe["files"].items():
                (work / name).write_text(text, encoding="utf-8")
            items[op["item"]] = {}
        else:
            built = corpus.build_item(recipe, call)
            items[op["item"]] = corpus.materialize(built, recipe, call, parse_in_op=workload == "crowd")
    return items


def pass_metrics(records: list[dict]) -> dict:
    charged = sorted(r["charged"] for r in records)
    n = len(charged)
    beyond = 10 if n > 10 else 0
    # The median is taken as the mean of the middle tenth of the sorted times
    # (at least the one or two middle ones), so that an op overtaking its
    # neighbour near the middle does not move it by their whole gap.
    lo, hi = min(n * 45 // 100, (n - 1) // 2), max(-(-n * 55 // 100), n // 2 + 1)
    return {
        "pass_s": sum(charged),
        "verdict_p50_ms": statistics.fmean(charged[lo:hi]) * 1000,
        "verdict_tail_ms": charged[n - 1 - beyond] * 1000,
        "tail_percentile": round(100 * (n - beyond) / n, 2),
        "ops": n,
        "failed": sum(r["status"] != "ok" for r in records),
        "wall_s": sum(r["wall"] for r in records),
    }


def run_pass(ops, items, ctx, rng=None, repeat=(), scale=False, tracer=None) -> list[dict]:
    """One record per op.  Every op runs once, in order, and the further runs
    that ``repeat`` tiers give it are put in at places ``rng`` draws; an op
    that fails runs no more.  A record keeps the wall times of all its runs as
    ``samples``, and as ``timed`` the times its verdict is taken over: scaled
    to the reference host speed if ``scale``, else the same."""
    schedule = list(range(len(ops)))
    for i, op in enumerate(ops):
        runs = next((n for below_s, n in repeat if op["seed_s"] < below_s), 1)
        for _ in range(runs - 1):
            schedule.insert(rng.randrange(len(schedule) + 1), i)
    records: dict[int, dict] = {}
    for i in schedule:
        last = records.get(i, {"status": "ok", "samples": [], "timed": []})
        if last["status"] != "ok":
            continue
        before = calibration_s() if scale else 0.0
        record = corpus.run_op(ops[i], items.get(ops[i]["item"]), ctx, tracer)
        factor = CALIBRATION_S * 2 / (before + calibration_s()) if scale else 1.0
        record["samples"] = last["samples"] + [record["elapsed"]]
        record["timed"] = last["timed"] + [record["elapsed"] * factor]
        records[i] = record
    return [verdict(records[i]) for i in range(len(ops))]


def calibration_s() -> float:
    """Time of the calibration work: dict and tuple churn, as in the solver."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(1500):
        key = (i & 127, i >> 7)
        table[key] = table.get((key[0], key[1] - 1), 0) + i
    return time.perf_counter() - start


def verdict(record: dict) -> dict:
    """The record with the median of its timed runs as its verdict time,
    unless it failed."""
    record = dict(record, wall=sum(record["samples"]))
    if record["status"] == "ok":
        record["charged"] = statistics.median(record["timed"])
    return record


def per_op(records: list[dict]) -> list[dict]:
    """One record per op over all passes of a run: its first failure if it
    ever failed, else the median of all its timed runs."""
    merged: dict[str, dict] = {}
    for record in records:
        first = merged.get(record["id"])
        if first is None:
            merged[record["id"]] = record
        elif first["status"] == "ok":
            merged[record["id"]] = verdict(dict(
                record, samples=first["samples"] + record["samples"], timed=first["timed"] + record["timed"]))
    return list(merged.values())


def peak_rss_mb() -> float:
    """High-water resident memory of this process or of any child it waited for."""
    usage = (resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return max(usage) / 1024


def _bucket(value: int) -> str:
    """Power-of-two bucket, for the shape histogram."""
    return f"<={1 << max(0, value - 1).bit_length()}"


def input_counts(refs: dict, ops: list[dict], items: dict) -> dict[str, int]:
    """Exact input properties of the sampled corpus, from public data only."""
    from dodgson import parse_election, serialize_election

    counts = Counter()
    seen = set()
    for op in ops:
        item = items.get(op["item"])
        if op["kind"] == "cli":
            counts[f"shape:{op['argv'][0]}"] += 1
            fields = op["expect"]["json"]
            if op["argv"][0] == "reduce" and op["expect"]["exit"] == 0:
                for part in ([fields] if "voters" in fields else [fields["left"], fields["right"]]):
                    counts["gadgets.out_candidates"] += part["candidates"]
                    counts["gadgets.out_voters"] += part["voters"]
            continue
        keys = [op["e"]] if "e" in op else [op["left"][0], op["right"][0]]
        for key in keys:
            election = item[key]
            if isinstance(election, str):
                election = parse_election(election)
            if (op["item"], key) not in seen:
                seen.add((op["item"], key))
                counts["elections.voters"] += election.n
                counts["elections.voter_groups"] += len(election.profile.groups)
                counts["elections.candidates"] += len(election.candidates)
                if refs["items"][op["item"]]["kind"] in ("3dm", "sum", "parity", "merge"):
                    counts["gadgets.out_candidates"] += len(election.candidates)
                    counts["gadgets.out_voters"] += election.n
                    counts["gadgets.out_bytes"] += len(serialize_election(election).encode())
        counts[f"shape:{_bucket(len(election.candidates))} candidates, {_bucket(election.n)} voters"] += 1
        if "c" in op:
            counts.update(corpus.scored_counts(op, election))
            counts["scoring.score_total"] += op["ref_score"]
    counts["scoring.bound_gap"] = counts["scoring.score_total"] - counts["scoring.deficit_total"]
    return dict(counts)


def layer_table(spans) -> dict[str, dict]:
    """Busy time, self time and calls per span name."""
    child_time = [0.0] * len(spans)
    for op, name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for i, (op, name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"busy_ms": 0.0, "self_ms": 0.0, "calls": 0})
        row["busy_ms"] += (end - start) * 1000
        row["self_ms"] += (end - start - child_time[i]) * 1000
        row["calls"] += 1
    return table


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(TIMEOUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="parent's monotonic clock at spawn")
    parser.add_argument("--work", required=True, help="scratch directory, relative to the root")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    corpus.install_alarm()

    refs_start = time.monotonic()
    refs = load_refs(args.workload)
    refs_s = time.monotonic() - refs_start

    tracer = corpus.Tracer() if args.trace else None
    work = ROOT / args.work
    ops = pick_ops(refs, args.workload, args.seed)
    if tracer is not None:
        tracer.op = "setup"
        with tracer.span("setup"):
            items = set_up(refs, ops, args.workload, work, corpus.Caller(tracer))
    else:
        items = set_up(refs, ops, args.workload, work, corpus.Caller())
    setup_s = time.monotonic() - args.t0 - refs_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    counts = input_counts(refs, ops, items)
    del refs  # the pool would otherwise be rescanned by collections inside ops
    gc.collect()
    ctx = {"root": str(ROOT), "work": args.work, "env": dict(os.environ)}
    passes = []
    records: list[dict] = []
    rss_mb = None
    if args.trace:
        records = run_pass(ops, items, ctx)
        plain = pass_metrics(records)
        traced_records = run_pass(ops, items, ctx, tracer=tracer)
        traced = pass_metrics(traced_records)
        passes = [plain]
        summary = plain
        records += traced_records
    else:
        # sample_ops puts the pool's failures last; the memory peak is read
        # once the first pass has run every other op.
        ok = sum(op["seed_status"] == "ok" for op in ops)
        rng = random.Random(f"rounds:{args.seed}")
        scale = args.workload in SCALED
        started = time.monotonic()
        while True:
            pass_started = time.monotonic()
            pass_records = run_pass(ops[:ok], items, ctx, rng, REPEAT[args.workload], scale)
            if not passes:
                rss_mb = peak_rss_mb()
            pass_records += run_pass(ops[ok:], items, ctx, scale=scale)
            records += pass_records
            passes.append(pass_metrics(pass_records))
            now = time.monotonic()
            if now - started + (now - pass_started) > args.seconds:
                break
        summary = pass_metrics(per_op(records))

    statuses = Counter(r["status"] for r in records)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "refs_load_s": refs_s,
        "passes": passes,
        "summary": summary,
        "attempted": len(records),
        "failed": sum(n for s, n in statuses.items() if s != "ok"),
        "wrong": [r for r in records if r["status"] == "wrong"],
        "statuses": dict(sorted(statuses.items())),
        "failed_ops": sorted({r["id"] for r in records if r["status"] != "ok"}),
        "records": records,
        "op_mix": dict(sorted(Counter(f"{op['group']}:{op['kind']}" for op in ops).items())),
        "ops_per_pass": len(ops),
        "counts": counts,
        "peak_rss_mb": rss_mb,
    }
    if args.trace:
        result["layers"] = layer_table(tracer.spans)
        suite_of = {op["id"]: op["argv"][1] for op in ops if op["kind"] == "cli" and op["argv"][0] == "verify"}
        result["verify_suites_ms"] = dict(Counter({
            suite_of[o]: (e - s) * 1000 for o, n, s, e, p in tracer.spans if n == "verify.run_suite_ms"
        }))
        result["traced_pass"] = traced
        result["traced_pass_statuses"] = dict(Counter(r["status"] for r in traced_records))
        result["trace_overhead_ms"] = (traced["wall_s"] - plain["wall_s"]) * 1000
        if args.workload == "cli":
            result["counts"]["gadgets.out_bytes"] = sum(
                p.stat().st_size for p in work.glob("r*.dodg"))
        trace_path = ROOT / ".bench_work" / "results" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "spans": [{"op": o, "name": n, "start": s, "end": e, "parent": p}
                      for o, n, s, e, p in tracer.spans],
            "layers": result["layers"],
        }) + "\n", encoding="utf-8")
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
