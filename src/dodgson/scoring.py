"""Exact Dodgson scoring and the decision problems built on it.

Two independent routes to the same quantity:

* One exact search over raise allocations (the designated candidate only ever
  moves upward): a budget-limited depth-first search with an explicit stack,
  an admissible per-opponent bound and a failure memo.  :func:`score_decision`
  and the decisions built on it run it once at their budget;
  :func:`score_exact` runs it at rising budgets from the root bound, and the
  first budget that admits a cover is the score and gives the witness.
* :func:`score_oracle` — breadth-first search over whole profiles using the
  literal one-adjacent-exchange-anywhere edge relation.  This is the ground
  truth the raise-only model is validated against, at small scale.

Everything here is pure and deterministic; witness ties are broken by the
lexicographically smallest per-voter raises vector under flat voter order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import inf
from typing import Sequence

from .elections import (
    DodgsonTriple,
    Election,
    PairwiseTally,
    VoterProfile,
    deficits_from_tally,
    majority_threshold,
    pairwise_tally,
)

__all__ = [
    "DEFAULT_STATE_CAP",
    "DEFAULT_ORACLE_CAP",
    "RaiseAllocation",
    "ScoreResult",
    "score_exact",
    "score_decision",
    "score_oracle",
    "all_scores",
    "dodgson_winners",
    "is_winner",
    "ranks_at_least",
    "two_election_ranking",
    "apply_raises",
]

DEFAULT_STATE_CAP = 10_000_000
DEFAULT_ORACLE_CAP = 20

# Per-voter upward switch counts, flat-indexed; cost is the sum.
RaiseAllocation = tuple[int, ...]


@dataclass(frozen=True)
class ScoreResult:
    score: int
    witness: RaiseAllocation


@dataclass(frozen=True)
class _Voter:
    """One voter's useful raise options.

    ``options`` is ascending by cost and always starts with ``(0, ())``.  An
    option ``(j, gains)`` raises the designated candidate by ``j`` positions
    and gains one vote over each listed deficit coordinate.  Raises whose top
    candidate carries no deficit are dominated by the next smaller useful
    raise, so they are omitted.
    """

    flat_index: int
    options: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class _CoverProblem:
    coords: tuple[str, ...]
    start: tuple[int, ...]
    voters: tuple[_Voter, ...]


def _cover_problem(triple: DodgsonTriple, tally: PairwiseTally | None = None) -> _CoverProblem:
    election = triple.election
    if tally is None:
        tally = pairwise_tally(election)
    deficits = deficits_from_tally(tally, triple.designated)
    coords = tuple(sorted(d for d, v in deficits.items() if v > 0))
    coord_index = {name: i for i, name in enumerate(coords)}
    start = tuple(deficits[name] for name in coords)
    voters: list[_Voter] = []
    flat = 0
    for order, mult in election.profile.groups:
        pos = order.position(triple.designated)
        above = order.ranking[pos + 1:]
        options: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        gains: list[int] = []
        for j, name in enumerate(above, start=1):
            idx = coord_index.get(name)
            if idx is not None:
                gains.append(idx)
                options.append((j, tuple(gains)))
        if len(options) > 1:
            frozen = tuple(options)
            voters.extend(_Voter(flat + copy, frozen) for copy in range(mult))
        flat += mult
    return _CoverProblem(coords, start, tuple(voters))


def _hit(state: tuple[int, ...], gains: tuple[int, ...]) -> tuple[int, ...]:
    if not gains:
        return state
    pending = list(state)
    for g in gains:
        if pending[g]:
            pending[g] -= 1
    return tuple(pending)


class _CoverSearch:
    """Budget-limited depth-first search for a cover of one problem.

    Voters are visited in flat order and each voter's options in ascending
    cost, on an explicit stack, so the first cover found at budget k is the
    lexicographically smallest raises vector of cost <= k.  The pass tables
    and the failure memo depend only on the problem, so they are shared by
    every budget tried on it.
    """

    def __init__(self, problem: _CoverProblem, state_cap: int):
        self.problem = problem
        self.state_cap = state_cap
        # (voter, residual) -> largest budget proven too small from there.
        self.failed: dict[tuple[int, tuple[int, ...]], float] = {}
        # passes[g]: (cost, ascending voter indices passing g at that cost),
        # ascending by cost.
        passes: list[dict[int, list[int]]] = [{} for _ in problem.coords]
        for vi, voter in enumerate(problem.voters):
            seen = 0
            for cost, gains in voter.options[1:]:
                for g in gains[seen:]:
                    passes[g].setdefault(cost, []).append(vi)
                seen = len(gains)
        self.passes = [sorted(levels.items()) for levels in passes]

    def lower(self, i: int, state: tuple[int, ...], left: float = inf) -> float:
        """Admissible lower bound on covering ``state`` with voters ``i..``.

        The memo's proven bound, else the larger of the residual deficit sum
        (one switch gains one vote) and, per opponent g with residual r, the r
        cheapest passes of g among the remaining voters (each voter passes g
        at most once); inf when fewer than r of them can pass g.  Stops early
        once the bound exceeds ``left``.
        """
        if i == len(self.problem.voters):
            return inf
        prior = self.failed.get((i, state))
        if prior is not None and left <= prior:
            return prior + 1
        best = sum(state)
        for g, need in enumerate(state):
            if best > left:
                break
            if not need:
                continue
            total = 0
            for cost, where in self.passes[g]:
                take = min(need, len(where) - bisect_left(where, i))
                total += take * cost
                need -= take
                if not need:
                    break
            if need:
                return inf
            best = max(best, total)
        return best

    def cover(self, budget: int) -> dict[int, int] | None:
        """First cover of cost <= ``budget`` as {flat_index: raise}, or None.

        A failure leaves the root's proven bound in the memo (within the cap).
        """
        voters = self.problem.voters
        start = self.problem.start
        if self.lower(0, start, budget) > budget:
            return None
        # One frame per voter on the current path: [residual, its sum, budget
        # left, index of the next option, least lower bound over the options
        # tried so far].
        stack = [[start, sum(start), budget, 0, inf]]
        while stack:
            i = len(stack) - 1
            frame = stack[-1]
            state, rsum, left, k, best = frame
            options = voters[i].options
            child = None
            while k < len(options):
                ocost, gains = options[k]
                if ocost > left:
                    best = min(best, ocost)  # later options cost even more
                    k = len(options)
                    break
                k += 1
                nstate = _hit(state, gains) if ocost else state
                nrsum = sum(nstate)
                if ocost and nrsum == rsum:
                    continue  # pure waste, never cheaper than option 0
                if nrsum == 0:
                    frame[3] = k
                    return {
                        voters[d].flat_index: voters[d].options[f[3] - 1][0]
                        for d, f in enumerate(stack)
                        if f[3] > 1
                    }
                need = self.lower(i + 1, nstate, left - ocost)
                if need <= left - ocost:
                    child = [nstate, nrsum, left - ocost, 0, inf]
                    break
                best = min(best, ocost + need)
            frame[3], frame[4] = k, best
            if child is not None:
                stack.append(child)
                continue
            stack.pop()
            if len(self.failed) < self.state_cap:
                self.failed[(i, state)] = best - 1
            if stack:
                parent = stack[-1]
                parent[4] = min(parent[4], voters[i - 1].options[parent[3] - 1][0] + best)
        return None


def _score_exact(
    triple: DodgsonTriple, tally: PairwiseTally | None, state_cap: int
) -> ScoreResult:
    problem = _cover_problem(triple, tally)
    n = triple.election.n
    if not problem.coords:
        return ScoreResult(0, (0,) * n)
    search = _CoverSearch(problem, state_cap)
    # Raising the designated candidate to the top of every voter is a cover,
    # so the bound is finite and some budget succeeds.  A failed budget
    # leaves the root's proven bound in the memo, so the next try can skip
    # budgets already ruled out.
    budget = search.lower(0, problem.start)
    while (allocation := search.cover(budget)) is None:
        budget = max(budget + 1, search.lower(0, problem.start, budget + 1))
    return ScoreResult(budget, tuple(allocation.get(i, 0) for i in range(n)))


def score_exact(triple: DodgsonTriple, *, state_cap: int = DEFAULT_STATE_CAP) -> ScoreResult:
    """Exact Dodgson score with a witness allocation achieving it."""
    return _score_exact(triple, None, state_cap)


def _score_at_most(
    triple: DodgsonTriple,
    budget: int,
    tally: PairwiseTally | None = None,
    memo_cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """Budget-limited search; never explores allocations costing more than
    ``budget``.  Negative budgets are trivially false."""
    if budget < 0:
        return False
    problem = _cover_problem(triple, tally)
    if not problem.coords:
        return True
    if sum(problem.start) > budget:
        return False
    return _CoverSearch(problem, memo_cap).cover(budget) is not None


def score_decision(
    triple: DodgsonTriple, budget: int, *, state_cap: int = DEFAULT_STATE_CAP
) -> bool:
    """Is the Dodgson score at most ``budget``?"""
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    return _score_at_most(triple, budget, memo_cap=state_cap)


def score_oracle(triple: DodgsonTriple, cap: int = DEFAULT_ORACLE_CAP) -> int | None:
    """Breadth-first search over whole profiles, one adjacent exchange anywhere
    per edge — the literal sequential-switch semantics.

    Profiles are canonicalized as sorted order multisets (switch cost is
    voter-anonymous).  Returns the first depth at which the designated
    candidate is a Condorcet winner, or None once ``cap`` is exceeded.
    Intended for desk scale (roughly <= 4 candidates, <= 5 voters).
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    election = triple.election
    index = {name: i for i, name in enumerate(election.candidates)}
    c = index[triple.designated]
    size = len(election.candidates)
    need = majority_threshold(election.n)
    others = [i for i in range(size) if i != c]

    def wins(state: tuple[tuple[int, ...], ...]) -> bool:
        positions = [{cand: pos for pos, cand in enumerate(order)} for order in state]
        for d in others:
            if sum(1 for pos in positions if pos[c] > pos[d]) < need:
                return False
        return True

    start = tuple(sorted(tuple(index[x] for x in order.ranking) for order in election.profile.orders()))
    if wins(start):
        return 0
    visited = {start}
    frontier = [start]
    depth = 0
    while frontier and depth < cap:
        depth += 1
        nxt = []
        for state in frontier:
            entries = list(state)
            for vi, order in enumerate(entries):
                if vi and order == entries[vi - 1]:
                    continue  # duplicate voter: identical successor states
                for p in range(size - 1):
                    swapped = order[:p] + (order[p + 1], order[p]) + order[p + 2:]
                    successor = tuple(sorted(entries[:vi] + [swapped] + entries[vi + 1:]))
                    if successor in visited:
                        continue
                    visited.add(successor)
                    if wins(successor):
                        return depth
                    nxt.append(successor)
        frontier = nxt
    return None


def all_scores(election: Election, *, state_cap: int = DEFAULT_STATE_CAP) -> dict[str, int]:
    """Exact Dodgson score of every candidate; winners are the argmin set."""
    tally = pairwise_tally(election)
    return {
        name: _score_exact(DodgsonTriple(election, name), tally, state_cap).score
        for name in election.candidates
    }


def dodgson_winners(election: Election, *, state_cap: int = DEFAULT_STATE_CAP) -> list[str]:
    scores = all_scores(election, state_cap=state_cap)
    low = min(scores.values())
    return [name for name in election.candidates if scores[name] == low]


def is_winner(triple: DodgsonTriple, *, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """Does the designated candidate tie-or-defeat every other candidate?

    Opponents are checked with budget-limited decisions rather than full
    scoring, which keeps this usable on large gadget-built elections.
    """
    tally = pairwise_tally(triple.election)
    own = _score_exact(triple, tally, state_cap).score
    for other in triple.election.candidates:
        if other == triple.designated:
            continue
        rival = DodgsonTriple(triple.election, other)
        if _score_at_most(rival, own - 1, tally, memo_cap=state_cap):
            return False  # the rival scores strictly below the designated
    return True


def ranks_at_least(
    election: Election, c: str, d: str, *, state_cap: int = DEFAULT_STATE_CAP
) -> bool:
    """Does ``c`` tie-or-defeat ``d``, i.e. is Score(c) <= Score(d)?"""
    for name in (c, d):
        if name not in election.candidates:
            raise ValueError(f"unknown candidate {name!r}")
    if c == d:
        return True
    tally = pairwise_tally(election)
    own = _score_exact(DodgsonTriple(election, c), tally, state_cap).score
    return not _score_at_most(DodgsonTriple(election, d), own - 1, tally, memo_cap=state_cap)


def two_election_ranking(
    left: DodgsonTriple, right: DodgsonTriple, *, state_cap: int = DEFAULT_STATE_CAP
) -> bool:
    """Is Score(left) <= Score(right)?

    Both elections must have an odd number of voters and the designated
    candidates must differ; anything else is not a valid instance.
    """
    for triple, side in ((left, "left"), (right, "right")):
        if triple.election.n % 2 == 0:
            raise ValueError(f"{side} election must have an odd number of voters")
    if left.designated == right.designated:
        raise ValueError("designated candidates must differ")
    own = score_exact(left, state_cap=state_cap).score
    return not _score_at_most(right, own - 1, memo_cap=state_cap)


def apply_raises(triple: DodgsonTriple, raises: Sequence[int]) -> Election:
    """Apply a per-voter raise allocation to the designated candidate.

    Used to check witnesses: applying a ScoreResult witness must produce an
    election whose Condorcet winner is the designated candidate.
    """
    election = triple.election
    if len(raises) != election.n:
        raise ValueError(f"expected {election.n} raise entries, got {len(raises)}")
    new_orders = [
        order.raised(triple.designated, int(step)) if step else order
        for order, step in zip(election.profile.orders(), raises)
    ]
    return Election(election.candidates, VoterProfile.from_orders(new_orders))
