"""Benchmark for the ``dodgson`` package: one seeded workload per run.

    python3 bench/run.py --workload gadget|crowd|oracle|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``; the
stored op pools and reference answers are read from ``bench/refs/``.  All load
comes from one workload process, one op at a time (a closed loop with one
client).  The workload process is started several more times to time its
set-up alone.

Prints every metric by name with its unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  A full
record with provenance goes to ``.bench_work/results/``.  Exits 1 if any
verdict disagrees with the stored references, 2 if the package or the
references are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("gadget", "crowd", "oracle", "cli")
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
TIMED_LAYERS = (
    "scoring.score_exact", "scoring.score_decision", "scoring.is_winner",
    "scoring.ranks_at_least", "scoring.two_election_ranking", "scoring.oracle",
    "scoring.all_scores", "scoring.apply_raises",
    "elections.parse", "elections.serialize", "elections.tally",
    "gadgets.reduce_3dm", "gadgets.dodgson_sum", "gadgets.parity_combine",
    "gadgets.merge", "gadgets.merge_prime",
    "matching.parse", "matching.has_matching",
    "verify.run_suite", "cli.process", "cli.main",
)
COUNTS = (
    "scoring.timeouts", "scoring.crashes", "scoring.useful_copies", "scoring.useful_types",
    "scoring.deficit_total", "scoring.score_total", "scoring.bound_gap",
    "elections.voters", "elections.voter_groups", "elections.candidates",
    "gadgets.out_candidates", "gadgets.out_voters", "gadgets.out_bytes",
)
PER_LAYER = {
    **{f"{layer}_ms": "ms" for layer in TIMED_LAYERS},
    **{f"{layer}_calls": "count" for layer in TIMED_LAYERS},
    "cli.startup_ms": "ms",
    "op.self_ms": "ms",
    "trace.overhead_ms": "ms",
    **{name: "count" for name in COUNTS},
}


def spawn(argv: list[str], out_path: Path) -> tuple[int, str]:
    """Run a child to completion; returns its exit code and standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(out_path, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(argv, stdout=out, cwd=ROOT, env=env)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    text = out_path.read_text(encoding="utf-8")
    out_path.unlink()
    return proc.returncode, text


def child_argv(args, work: str, setup_only: bool = False) -> list[str]:
    argv = [
        sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--t0", repr(time.monotonic()),
    ]
    return argv + (["--setup-only"] if setup_only else [])


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(child: dict, setups: list[float]) -> dict:
    summary = child["summary"]
    return {
        "setup_s": statistics.median(setups),
        "pass_s": summary["pass_s"],
        "verdict_p50_ms": summary["verdict_p50_ms"],
        "verdict_tail_ms": summary["verdict_tail_ms"],
        "peak_rss_mb": child["peak_rss_mb"],
    }


def per_layer(child: dict) -> dict:
    layers = child["layers"]
    values = {}
    for layer in TIMED_LAYERS:
        row = layers.get(f"{layer}_ms", {"busy_ms": 0.0, "calls": 0})
        values[f"{layer}_ms"] = row["busy_ms"]
        values[f"{layer}_calls"] = row["calls"]
    values["cli.startup_ms"] = values["cli.process_ms"] - values["cli.main_ms"]
    values["op.self_ms"] = layers.get("op", {}).get("self_ms", 0.0)
    values["trace.overhead_ms"] = child["trace_overhead_ms"]
    counts = child["counts"]
    statuses = child["traced_pass_statuses"]
    counts["scoring.timeouts"] = statuses.get("timeout", 0)
    counts["scoring.crashes"] = sum(n for s, n in statuses.items() if s not in ("ok", "wrong", "timeout"))
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    return values


def print_layer_table(child: dict) -> None:
    layers = child["layers"]
    op_busy = layers.get("op", {}).get("busy_ms", 0.0)
    print(f"layer table ({child['workload']}, traced pass plus set-up; op time {op_busy:.1f} ms):")
    print(f"  {'span':34} {'busy ms':>12} {'self ms':>12} {'calls':>7} {'% of op':>8}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["busy_ms"]):
        share = 100 * row["busy_ms"] / op_busy if op_busy and name not in ("setup",) else 0.0
        print(f"  {name:34} {row['busy_ms']:12.2f} {row['self_ms']:12.2f} {row['calls']:7d} {share:8.1f}")
    for suite, ms in sorted(child["verify_suites_ms"].items()):
        print(f"  verify.run_suite_ms, suite {suite}: {ms:.2f} ms")
    print(f"  tracing overhead: {child['trace_overhead_ms']:.2f} ms "
          f"(traced pass wall minus untraced pass wall)")


def main() -> int:
    parser = argparse.ArgumentParser(description="dodgson benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (ROOT / "src" / "dodgson" / "__init__.py", BENCH / "refs" / f"{args.workload}.json")
               if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(str(p.relative_to(ROOT)) for p in missing)}; "
              "run from the repository root", file=sys.stderr)
        return 2

    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = f".bench_work/run-{tag}-{os.getpid()}"
    capture = results / f".{tag}-{os.getpid()}.out"

    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES + 1):  # the first one also fills bytecode caches
            code, text = spawn(child_argv(args, work, setup_only=True), capture)
            if code != 0:
                print(f"error: set-up failed with exit code {code}", file=sys.stderr)
                return 2
            if i:
                setups.append(json.loads(text.splitlines()[-1])["setup_s"])
    code, text = spawn(child_argv(args, work), capture)
    if code != 0 or not text.strip():
        print(f"error: workload process exited with code {code}", file=sys.stderr)
        return 2
    child = json.loads(text.splitlines()[-1])
    setups.append(child["setup_s"])

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(), "setup_samples_s": setups,
              "child": child}
    attempted, failed = child["attempted"], child["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {child['ops_per_pass']} ops per pass, "
          f"{len(child['passes'])} pass(es); python {record['provenance']['python']}, "
          f"nproc {record['provenance']['nproc']}, commit {record['provenance']['commit']}")
    print(f"op mix: {json.dumps(child['op_mix'], sort_keys=True)}")
    shapes = {k[len("shape:"):]: v for k, v in child["counts"].items() if k.startswith("shape:")}
    print(f"shapes: {json.dumps(shapes, sort_keys=True)}")
    print(f"statuses: {json.dumps(child['statuses'], sort_keys=True)}")
    if args.trace:
        metrics = per_layer(child)
        units = PER_LAYER
        print_layer_table(child)
    else:
        metrics = end_to_end(child, setups)
        units = END_TO_END
        tail = child["summary"]
        print(f"failed_share: {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
        print(f"verdict_tail_ms is the p{tail['tail_percentile']} of {tail['ops']} ops per pass")
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    for wrong in child["wrong"]:
        print(f"WRONG {wrong['id']}: {wrong['detail']}")
    record["metrics"] = metrics
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    correct = not child["wrong"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
