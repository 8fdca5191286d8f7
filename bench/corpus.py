"""Corpus items, operations and the per-op runner shared by the workload
process (``workload.py``) and the reference generator (``make_refs.py``).

An *item* is one input built from a stored recipe through the package's public
API: a gadget output, a many-voter election, a desk-scale profile or a set of
CLI fixtures.  An *op* is one query on an item with a known answer.  Every op
runs under its own time limit; the limit is enforced with :class:`OpTimeout`,
which derives from ``BaseException`` so the package cannot swallow it.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

from dodgson import (
    DodgsonTriple,
    Election,
    PreferenceOrder,
    VoterProfile,
    apply_raises,
    condorcet_winner,
    deficit_vector,
    dodgson_sum,
    has_matching,
    is_winner,
    merge,
    merge_prime,
    parity_combine,
    parse_election,
    parse_matching,
    ranks_at_least,
    reduce_3dm,
    score_decision,
    score_exact,
    score_oracle,
    serialize_election,
    two_election_ranking,
)

CROWD_NAMES = "abcdef"
ALL = 10**9  # sampling count meaning "the whole group"


class OpTimeout(BaseException):
    """Raised from SIGALRM when an op exceeds its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- tracing ------------------------------------------------------------------


class Tracer:
    """In-memory spans: (op id, name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[tuple[str, str, float, float, int]] = []
        self._stack: list[int] = []
        self.op = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((self.op, name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            op, nm, start, _, par = self.spans[index]
            self.spans[index] = (op, nm, start, time.perf_counter(), par)


class Caller:
    """Calls into the package, recording a span per call when tracing."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer

    def __call__(self, layer: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        with self.tracer.span(layer):
            return fn(*args, **kwargs)


# --- items --------------------------------------------------------------------


def ic_election(m: int, n: int, seed: str, landslide: float = 0.0) -> Election:
    """Impartial culture over the first ``m`` names; with ``landslide`` > 0 that
    share of voters copies one seeded order, so the other candidates carry
    deficits proportional to ``n``."""
    names = tuple(CROWD_NAMES[:m])
    perms = list(itertools.permutations(names))
    rng = random.Random(seed)
    counts = [0] * len(perms)
    favourite = rng.randrange(len(perms))
    copies = int(n * landslide)
    counts[favourite] += copies
    for _ in range(n - copies):
        counts[rng.randrange(len(perms))] += 1
    groups = tuple((PreferenceOrder(p), c) for p, c in zip(perms, counts) if c)
    return Election(names, VoterProfile(groups))


def build_item(recipe: dict, call: Caller) -> dict[str, object]:
    """Build one item.  Returns key -> Election for gadget-like items, or key ->
    .dodg text for items whose ops parse their own input."""
    kind = recipe["kind"]
    if kind == "3dm":
        instance = call("matching.parse_ms", parse_matching, recipe["matching"])
        return {"red": call("gadgets.reduce_3dm_ms", reduce_3dm, instance).triple.election}
    if kind == "sum":
        blocks = [
            DodgsonTriple(call("elections.parse_ms", parse_election, text), des)
            for text, des in recipe["blocks"]
        ]
        return {"sum": call("gadgets.dodgson_sum_ms", dodgson_sum, blocks).election}
    if kind == "parity":
        inputs = [call("matching.parse_ms", parse_matching, t) for t in recipe["inputs"]]
        # the combiner's law holds for member-first input lists
        members = [call("matching.has_matching_ms", has_matching, x) for x in inputs]
        ordered = [x for x, yes in zip(inputs, members) if yes] + [
            x for x, yes in zip(inputs, members) if not yes
        ]
        pair = call("gadgets.parity_combine_ms", parity_combine, ordered)
        return {"left": pair.left.election, "right": pair.right.election}
    if kind == "merge":
        t1, t2 = (
            DodgsonTriple(call("elections.parse_ms", parse_election, text), des)
            for text, des in (recipe["t1"], recipe["t2"])
        )
        return {
            "merge": call("gadgets.merge_ms", merge, t1, t2).election,
            "prime": call("gadgets.merge_prime_ms", merge_prime, t1, t2).election,
        }
    if kind == "ic":
        return {"e": ic_election(recipe["m"], recipe["n"], recipe["seed"], recipe.get("landslide", 0.0))}
    if kind == "text":
        return {"e": call("elections.parse_ms", parse_election, recipe["text"])}
    raise ValueError(f"unknown recipe kind {kind!r}")


def materialize(item: dict, recipe: dict, call: Caller, parse_in_op: bool) -> dict[str, object]:
    """Serialise each built election and check it against the stored digest.

    Gadget outputs are parsed back, as a caller reading the written file would;
    with ``parse_in_op`` the text itself is kept and each op parses it."""
    out = {}
    for key, election in item.items():
        text = call("elections.serialize_ms", serialize_election, election)
        if sha256(text) != recipe["sha256"][key]:
            raise RuntimeError(f"item {recipe['id']}:{key} differs from its stored reference")
        out[key] = text if parse_in_op else call("elections.parse_ms", parse_election, text)
    return out


# --- ops ----------------------------------------------------------------------


def _election(item, key, call):
    value = item[key]
    if isinstance(value, str):
        return call("elections.parse_ms", parse_election, value)
    return value


def _query(op: dict, item: dict, call: Caller):
    """The program's part of an op: returns its raw answer."""
    kind = op["kind"]
    if kind == "two_er":
        (lk, lc), (rk, rc) = op["left"], op["right"]
        left = DodgsonTriple(_election(item, lk, call), lc)
        right = DodgsonTriple(_election(item, rk, call), rc)
        return call("scoring.two_election_ranking_ms", two_election_ranking, left, right)
    election = _election(item, op["e"], call)
    triple = DodgsonTriple(election, op["c"])
    if kind == "exact":
        return triple, call("scoring.score_exact_ms", score_exact, triple)
    if kind == "decision":
        return call("scoring.score_decision_ms", score_decision, triple, op["budget"])
    if kind == "winner":
        return call("scoring.is_winner_ms", is_winner, triple)
    if kind == "ranks":
        return call("scoring.ranks_at_least_ms", ranks_at_least, election, op["c"], op["d"])
    if kind == "oracle":
        return (
            call("scoring.oracle_ms", score_oracle, triple),
            call("scoring.score_exact_ms", score_exact, triple).score,
        )
    raise ValueError(f"unknown op kind {kind!r}")


def _check(op: dict, answer, call: Caller) -> str:
    """Empty string when the answer matches the stored reference, else why not."""
    expect = op["expect"]
    kind = op["kind"]
    if kind == "exact":
        triple, result = answer
        if result.score != expect:
            return f"score {result.score}, reference {expect}"
        witness = result.witness
        if len(witness) != triple.election.n or any(r < 0 for r in witness):
            return "malformed witness"
        if sum(witness) != expect:
            return f"witness costs {sum(witness)}, score {expect}"
        raised = call("scoring.apply_raises_ms", apply_raises, triple, witness)
        if call("elections.tally_ms", condorcet_winner, raised) != triple.designated:
            return "witness does not make the candidate a Condorcet winner"
        return ""
    if kind == "oracle":
        return "" if answer == (expect, expect) else f"oracle/exact {answer}, reference {expect}"
    return "" if answer is expect else f"answer {answer}, reference {expect}"


def _cli_query(op: dict, ctx: dict, limit: float):
    argv = [a.replace("{work}", ctx["work"]) for a in op["argv"]]
    proc = subprocess.run(
        [sys.executable, "-m", "dodgson", *argv],
        capture_output=True, text=True, timeout=limit, cwd=ctx["root"], env=ctx["env"],
    )
    return proc.returncode, proc.stdout


def _cli_check(op: dict, answer, ctx: dict, call: Caller) -> str:
    code, stdout = answer
    expect = op["expect"]
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    if not expect.get("json"):
        return ""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    for key, want in expect["json"].items():
        if payload.get(key) != want:
            return f"{key}={payload.get(key)!r}, expected {want!r}"
    if "witness" in payload:
        path = op["argv"][1].replace("{work}", ctx["work"])
        with open(os.path.join(ctx["root"], path), encoding="utf-8") as fh:
            election = parse_election(fh.read())
        triple = DodgsonTriple(election, op["argv"][3])
        witness = payload["witness"]
        if sum(witness) != payload["score"] or len(witness) != election.n:
            return "witness cost differs from the score"
        raised = call("scoring.apply_raises_ms", apply_raises, triple, witness)
        if call("elections.tally_ms", condorcet_winner, raised) != triple.designated:
            return "witness does not make the candidate a Condorcet winner"
    return ""


def _inprocess_main(op: dict, ctx: dict, tracer: Tracer):
    """Run ``cli.main`` in this process for the same argv, with the public
    functions the CLI module calls wrapped in spans."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from dodgson import cli

    argv = [a.replace("{work}", ctx["work"]) for a in op["argv"]]
    saved = {name: getattr(cli, name) for name in CLI_LAYERS}

    def wrap(name, fn):
        def traced(*args, **kwargs):
            with tracer.span(CLI_LAYERS[name]):
                return fn(*args, **kwargs)
        return traced

    for name, fn in saved.items():
        setattr(cli, name, wrap(name, fn))
    cwd = os.getcwd()
    try:
        os.chdir(ctx["root"])
        with tracer.span("cli.main_ms"), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except SystemExit:
                pass
    finally:
        os.chdir(cwd)
        for name, fn in saved.items():
            setattr(cli, name, fn)


# Names the CLI module imports from the other modules, and their layer.
CLI_LAYERS = {
    "parse_election": "elections.parse_ms",
    "serialize_election": "elections.serialize_ms",
    "parse_matching": "matching.parse_ms",
    "build_reduction": "gadgets.reduce_3dm_ms",
    "build_sum": "gadgets.dodgson_sum_ms",
    "build_parity_combiner": "gadgets.parity_combine_ms",
    "build_merge": "gadgets.merge_ms",
    "merge_prime": "gadgets.merge_prime_ms",
    "score_exact": "scoring.score_exact_ms",
    "score_decision": "scoring.score_decision_ms",
    "score_oracle": "scoring.oracle_ms",
    "all_scores": "scoring.all_scores_ms",
    "is_winner": "scoring.is_winner_ms",
    "ranks_at_least": "scoring.ranks_at_least_ms",
    "two_election_ranking": "scoring.two_election_ranking_ms",
    "run_suite": "verify.run_suite_ms",
}


def run_op(op: dict, item, ctx: dict, tracer: Tracer | None = None) -> dict:
    """Run one op under its limit.  Returns its record: status is ``ok``,
    ``wrong``, ``timeout`` or the exception type name; ``charged`` is the time
    counted for it, never less than the limit when it failed."""
    limit = op["limit_s"]
    call = Caller(tracer)
    detail = ""
    if tracer is not None:
        tracer.op = op["id"]
    if op["kind"] != "cli":
        # Start every op from a collected heap, so whether a full collection
        # falls inside it depends on its own allocations, not on its
        # predecessors in the pass.
        gc.collect()
    with _span(tracer, "op"):
        start = time.perf_counter()
        try:
            try:
                if op["kind"] == "cli":
                    with _span(tracer, "cli.process_ms"):
                        answer = _cli_query(op, ctx, limit)
                else:
                    signal.setitimer(signal.ITIMER_REAL, limit)
                    answer = _query(op, item, call)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            status = "ok"
        except (OpTimeout, subprocess.TimeoutExpired):
            elapsed = time.perf_counter() - start
            status = "timeout"
        except Exception as exc:  # the op's failure is measured, not fatal
            elapsed = time.perf_counter() - start
            status = type(exc).__name__
            detail = str(exc)[:200]
        if status == "ok":
            detail = (
                _cli_check(op, answer, ctx, call) if op["kind"] == "cli" else _check(op, answer, call)
            )
            if detail:
                status = "wrong"
        if tracer is not None and op["kind"] == "cli":
            _inprocess_main(op, ctx, tracer)
    charged = elapsed if status == "ok" else max(elapsed, limit)
    return {"id": op["id"], "status": status, "elapsed": elapsed, "charged": charged, "detail": detail}


@contextmanager
def _null():
    yield


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else _null()


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


# --- sampling -----------------------------------------------------------------


def sample_ops(ops: list[dict], timeouts: dict[str, int], tiers, seed: int) -> list[dict]:
    """Draw the op list for a seed from the pool.

    The pool is stratified by group, by the op's status when the pool was
    timed (ok, timeout or the exception type) and by a speed tier: the first
    ``(min_s, bin_size, drawn)`` entry of ``tiers`` whose ``min_s`` the op's
    pool time reaches.  Groups mapped to ``ALL`` are taken whole.  A timeout
    stratum gives ``timeouts[group]`` ops.  Any stratum is sorted by pool time
    and cut into equal bins (of ``bin_size`` neighbours for the tiers); each
    bin gives one op, drawn at random in a ``drawn`` tier and its middle op
    otherwise.  Every seed thus runs the same number of ops, and of failures,
    from every stratum; the seed varies the cheap ops and the order, while the
    ops that set the median, the tail, the pass time and the memory peak stay
    put.  The pool's failures come last in the order."""
    rng = random.Random(f"sample:{seed}")
    strata: dict[tuple[str, str, int], list[dict]] = {}
    for op in ops:
        tier = -1 if op["seed_status"] == "timeout" else next(
            i for i, (min_s, _, _) in enumerate(tiers) if op["seed_s"] >= min_s)
        strata.setdefault((op["group"], op["seed_status"], tier), []).append(op)
    chosen = []
    for (group, status, tier), pool in sorted(strata.items()):
        pool.sort(key=lambda op: (op["seed_s"], op["id"]))
        if timeouts.get(group) == ALL:
            chosen.extend(pool)
            continue
        if tier < 0:
            if group not in timeouts:
                raise ValueError(f"group {group} has ops that time out but no timeout count")
            want, drawn = min(timeouts[group], len(pool)), False
        else:
            _, size, drawn = tiers[tier]
            want = -(-len(pool) // size)
        for b in range(want):
            lo, hi = b * len(pool) // want, (b + 1) * len(pool) // want
            chosen.append(pool[rng.randrange(lo, hi) if drawn else (lo + hi) // 2])
    # Interleave the groups, so that a slow spell of the host touches a few
    # ops of every kind rather than every op of one kind.  The ops that failed
    # when the pool was timed go last: they are charged their limit wherever
    # they run, and the memory a cut-off search had reached depends on the
    # speed of the host, so the memory peak is read before they run.
    rng.shuffle(chosen)
    chosen.sort(key=lambda op: op["seed_status"] != "ok")
    return chosen


# --- per-item input properties --------------------------------------------------


def scored_counts(op: dict, election: Election) -> dict[str, int]:
    """Machine-independent counts for one scored (election, candidate)."""
    deficits = deficit_vector(DodgsonTriple(election, op["c"]))
    pending = {d for d, v in deficits.items() if v > 0}
    copies = types = 0
    for order, mult in election.profile.groups:
        above = order.ranking[order.position(op["c"]) + 1:]
        if pending.intersection(above):
            copies += mult
            types += 1
    return {
        "scoring.useful_copies": copies,
        "scoring.useful_types": types,
        "scoring.deficit_total": sum(deficits.values()),
    }
