"""Exact Dodgson scoring and the decision problems built on it.

Two independent routes to the same quantity:

* One exact search over raise allocations (the designated candidate only ever
  moves upward).  It works on voter types, not voter copies: for each run of
  identical voters (a :class:`VoterProfile` group) and each useful raise
  level it chooses how many of the run's copies reach that level, the
  variables of Bartholdi, Tovey & Trick (1989) that make the score easy for a
  fixed number of candidates.  A budget-limited depth-first search with an
  explicit stack tries these counts in ascending order, pruned by admissible
  bounds and a failure memo.  :func:`score_decision` and the decisions built
  on it run it once at their budget; :func:`score_exact` runs it at rising
  budgets from the root bound, and the first budget that admits a cover is
  the score and gives the witness.  Where the budget left equals the residual
  deficit sum, only covers that pass each opponent exactly its residual with
  no wasted switch remain; one exact-fit check decides whether such a cover
  exists and closes the frames that hold none.
* :func:`score_oracle` — breadth-first search over whole profiles using the
  literal one-adjacent-exchange-anywhere edge relation.  This is the ground
  truth the raise-only model is validated against, at small scale.

Everything here is pure and deterministic; witness ties are broken by the
lexicographically smallest per-voter raises vector under flat voter order, in
which the copies of a group raise in ascending order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf
from typing import Iterable, NamedTuple, Sequence

from .elections import DodgsonTriple, Election, VoterProfile, deficit_vector, majority_threshold
from .gadgets import TwoERInstance

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


class _Group(NamedTuple):
    """A run of identical voters and its useful raise levels.

    Level ``k`` raises the designated candidate by ``costs[k]`` positions and
    passes the group's first ``k`` deficit opponents, ``coords[:k]``; level 0
    costs nothing.  A raise whose top candidate carries no deficit is
    dominated by the next smaller useful raise, so only these levels exist.
    """

    flat: int  # flat index of the group's first copy
    mult: int
    costs: tuple[int, ...]
    coords: tuple[int, ...]


@dataclass(frozen=True)
class _CoverProblem:
    coords: tuple[str, ...]
    start: tuple[int, ...]
    groups: tuple[_Group, ...]


def _cover_problem(triple: DodgsonTriple) -> _CoverProblem:
    deficits = deficit_vector(triple)
    coords = tuple(sorted(d for d, v in deficits.items() if v > 0))
    coord_index = {name: i for i, name in enumerate(coords)}
    start = tuple(deficits[name] for name in coords)
    groups: list[_Group] = []
    flat = 0
    for order, mult in triple.election.profile.groups:
        pos = order.position(triple.designated)
        costs, hits = [0], []
        for j, name in enumerate(order.ranking[pos + 1:], start=1):
            idx = coord_index.get(name)
            if idx is not None:
                costs.append(j)
                hits.append(idx)
        if hits:
            groups.append(_Group(flat, mult, tuple(costs), tuple(hits)))
        flat += mult
    return _CoverProblem(coords, start, tuple(groups))


class _CoverSearch:
    """Budget-limited depth-first search for a cover of one problem.

    The search has one layer per (group, level).  At layer (g, j) it chooses
    how many of the copies of group g that reached level j-1 go on to level
    j, in ascending order; a frame with one copy left chooses that copy's
    final level directly, as a search over single voters would.  Copies of a
    group are interchangeable, so the least raises vector raises them in
    ascending order, and that vector is fixed by the counts reaching each
    level: leaving more copies at a lower level makes it smaller.  Ascending
    counts, level by level and group by group, therefore meet covers in the
    lexicographic order of their raises vectors, and the first cover found
    at the score is the least optimal one; :meth:`cover` returns the stack
    that found it, and the witness is read off its frames.  Options are
    dropped only where a strictly cheaper cover exists, which never happens
    at the score.  The tables and the failure memo depend only on the
    problem, so every budget tried on it shares them.

    A frame whose budget left equals its residual sum has zero slack: every
    cover below it is free of waste and passes each opponent exactly its
    residual, an exact multicover.  Once a child of such a frame fails and
    options are left, :meth:`exact_fit` decides once per frame, on a layout
    built for that call, whether that cover exists: if so, the frame notes
    it; if not, it closes with least bound left + 1, which the memo records.
    Only frames with no cover within budget close and the options keep their
    order, so scores and witnesses are those of the plain search; a search
    that meets its cover without backtracking never checks.
    """

    def __init__(self, problem: _CoverProblem, state_cap: int):
        self.problem = problem
        self.state_cap = state_cap
        groups = problem.groups
        # (layer, copies available, residual) -> largest budget proven too
        # small from there; the only record ``state_cap`` caps.
        self.failed: dict[tuple[int, int, tuple[int, ...]], float] = {}
        # own[L][x]: (cost of passing opponent x above the level below layer
        # L, whether that raise is free of waste), or None; built when first needed.
        self.own: dict[int, list[tuple[int, bool] | None]] = {}
        # layers[L] = (group, level); entry[g] = (first layer, copies) of
        # group g, and entry[-1] = (end, 0).
        self.layers: list[tuple[int, int]] = []
        self.entry: list[tuple[int, int]] = []
        # waste_free[g]: the opponents group g passes from level 0, one switch each
        self.waste_free = [self.run_from(g, 1) for g in range(len(groups))]
        # A bucket holds ascending groups and the prefix sums of their
        # multiplicities.  passes[x]: (cost, bucket of the groups passing
        # opponent x at that cost), ascending by cost; free[x]: bucket of the
        # groups passing x without waste.
        passes: list[dict[int, tuple[list[int], list[int]]]] = [{} for _ in problem.coords]
        self.free = [([], [0]) for _ in problem.coords]
        for g, grp in enumerate(groups):
            self.entry.append((len(self.layers), grp.mult))
            for k, x in enumerate(grp.coords, start=1):
                self.layers.append((g, k))
                buckets = [passes[x].setdefault(grp.costs[k], ([], [0]))]
                if k <= len(self.waste_free[g]):
                    buckets.append(self.free[x])
                for where, cum in buckets:
                    where.append(g)
                    cum.append(cum[-1] + grp.mult)
        self.entry.append((len(self.layers), 0))
        self.passes = [sorted(levels.items()) for levels in passes]

    def lower(self, layer: int, avail: int, state: tuple[int, ...], left: float = inf) -> float:
        """Admissible lower bound on covering ``state`` from ``layer`` on:
        ``avail`` copies of its group priced by :meth:`own_table`, later groups' by the buckets.

        The memo's proven bound, else the largest of:

        * the residual deficit sum r (one switch passes one opponent);
        * the efficient-supply bound: per opponent x with residual r_x, r
          plus r_x - F_x, where F_x counts the remaining copies that can
          pass x without waste, that is at a cost equal to the deficit
          opponents passed.  A cover costs the passes it makes, at least r,
          plus its waste, and every pass of x beyond F_x is made by a
          different copy that wastes a switch.  For a set S of opponents
          the same argument gives sum_S r_x <= E_S + |S| * slack, with E_S
          the most members of S the copies pass without waste; a copy's
          waste-free raises are a prefix of its levels, so E_S is the sum of
          F_x over S and the single opponents imply every set.  It is
          computed only where it can exceed ``left``;
        * per opponent x, the cost of its r_x cheapest passes (each copy
          passes x at most once); inf when fewer than r_x copies can.

        Stops early once the bound exceeds ``left``.
        """
        if layer == len(self.layers):
            return inf
        prior = self.failed.get((layer, avail, state))
        if prior is not None and left <= prior:
            return prior + 1
        g, j = self.layers[layer]
        rsum = sum(state)
        best = rsum
        slack = left - rsum
        own = self.own.get(layer)
        if own is None:
            own = self.own[layer] = self.own_table(g, j)
        for x, need in enumerate(state):
            if best > left:
                break
            if not need:
                continue
            mine = own[x]
            if need > slack:
                # efficient supply; without it the crowd pool took 23 s, not 1 s
                where, cum = self.free[x]
                free = cum[-1] - cum[bisect_right(where, g)] + (avail if mine and mine[1] else 0)
                if rsum + need - free > best:
                    best = rsum + need - free
            total = 0
            for cost, (where, cum) in self.passes[x]:
                if mine and mine[0] <= cost:
                    # the group's own copies, at the level below this layer; with
                    # min() here and a dict for `own`, `lower` ran 25% slower on gadgets
                    if need <= avail:
                        total += need * mine[0]
                        break
                    total += avail * mine[0]
                    need -= avail
                    mine = None
                take = min(need, cum[-1] - cum[bisect_right(where, g)])
                total += take * cost
                need -= take
                if not need:
                    break
            else:
                return inf  # fewer than r_x copies can pass x
            if total > best:
                best = total
        return best

    def supply_after(self, g: int, x: int) -> int:
        """Copies in the groups after ``g`` that can pass opponent ``x``."""
        return sum(cum[-1] - cum[bisect_right(where, g)] for _, (where, cum) in self.passes[x])

    def own_table(self, g: int, j: int) -> list[tuple[int, bool] | None]:
        """``own[L]`` for layer (g, j)."""
        costs, coords = self.problem.groups[g].costs, self.problem.groups[g].coords
        run = len(self.run_from(g, j))
        own: list[tuple[int, bool] | None] = [None] * len(self.problem.coords)
        for i in range(j, len(costs)):
            own[coords[i - 1]] = (costs[i] - costs[j - 1], i - j < run)
        return own

    def run_from(self, g: int, j: int) -> tuple[int, ...]:
        """Opponents group ``g`` passes from level ``j`` up, one switch each."""
        costs, coords = self.problem.groups[g].costs, self.problem.groups[g].coords
        k = j
        while k < len(costs) and costs[k] - costs[k - 1] == 1:
            k += 1
        return coords[j - 1:k - 1]

    def exact_fit(self, layer: int, avail: int, state: tuple[int, ...]) -> bool:
        """Can the copies from ``layer`` on pass each opponent x exactly
        ``state[x]`` times at one switch per pass?  Not cached: the frame keeps it.

        A variable counts the copies of a run that reach one of its waste-free
        levels; the runs, laid out on each call, are this layer's ``avail``
        copies from the level below it and each later group from level 0.
        Counts do not increase along a run and each opponent's sum to its
        residual.  Bounds propagate to a fixpoint, then one count of the
        opponent with the fewest free counts is split in two, as Algorithm X
        branches on its most constrained column; only an opponent's bound sums
        leaving its residual refute a node.
        """
        g, j = self.layers[layer]
        later = zip(self.problem.groups[g + 1:], self.waste_free[g + 1:])
        runs = [(avail, self.run_from(g, j))] + [(grp.mult, xs) for grp, xs in later]
        # counts in run order: each one's opponent, whether it starts a run (with
        # an end marker) and its upper bound, the run's copies or the count before
        # cut by the residual; of[x]: opponent x's counts, shi[x]: their bounds' sum
        opp, head, hi, shi = [], [], [], [0] * len(state)
        of: list[list[int]] = [[] for _ in state]
        for top, xs in runs:
            for i, x in enumerate(xs):
                of[x].append(len(opp))
                opp.append(x)
                head.append(i == 0)
                if state[x] < top:
                    top = state[x]  # with min() here the checks of 3dm-12 `t` took 24% longer
                hi.append(top)
                shi[x] += top
        head.append(True)

        def tighten(node, v, low, high, dirty):
            """Narrow count v to [low, high], walking the change along its run.

            No range empties.  Along a run lo and hi never increase, and lo <= hi.
            settle's [need - high + hi[v], need - low + lo[v]] meets v's range,
            as low <= need <= high, and is not empty, as high - low >= hi[v] -
            lo[v]; a split keeps a non-empty half.  So the forward walk meets
            only lo <= high, and the backward walk only hi >= low.
            """
            lo, hi, slo, shi = node
            u = v
            while hi[u] > high:
                x = opp[u]
                shi[x] += high - hi[u]
                hi[u] = high
                dirty.add(x)
                u += 1
                if head[u]:
                    break
            u = v
            # the backward walk; without it the gadget pool took 46 s, not 29 s
            while lo[u] < low:
                x = opp[u]
                slo[x] += low - lo[u]
                lo[u] = low
                dirty.add(x)
                if head[u]:
                    break
                u -= 1

        def settle(node, dirty):
            lo, hi, slo, shi = node
            while dirty:
                x = dirty.pop()
                need, low, high = state[x], slo[x], shi[x]
                if not low <= need <= high:
                    return False
                for v in of[x]:
                    a, b = need - high + hi[v], need - low + lo[v]
                    if a > lo[v] or b < hi[v]:
                        tighten(node, v, a, b, dirty)
            return True

        todo = [([0] * len(opp), hi, [0] * len(state), shi, set(range(len(state))))]
        while todo:
            *node, dirty = todo.pop()
            if not settle(node, dirty):
                continue
            lo, hi = node[0], node[1]
            free = min((f for vs in of if (f := [v for v in vs if lo[v] < hi[v]])),
                       key=len, default=None)
            if free is None:
                return True
            v = free[-1]
            mid = (lo[v] + hi[v]) // 2
            for half, low, high in (([p[:] for p in node], mid + 1, hi[v]), (node, lo[v], mid)):
                dirty = set()
                tighten(half, v, low, high, dirty)
                todo.append((*half, dirty))
        return False

    def frame(self, layer: int, avail: int, state: tuple[int, ...], rsum: int, left: int) -> list:
        """A new frame: [layer, copies available, residual, its sum, budget
        left, next option, last option, least lower bound over the options
        tried so far, cost of the option being tried, whether an exact cover
        is known to exist below it].

        With one copy left an option is that copy's final level, from j-1
        up.  Otherwise it is the count going on to level j: at least what the
        group's opponents from level j up need beyond the later groups'
        supply, and at most their largest residual (with more, the copy that
        stops lowest could stop at level j-1 instead and the cover would
        still hold, for less).
        """
        g, j = self.layers[layer]
        grp = self.problem.groups[g]
        if avail == 1:
            # without single-copy frames the gadget pool took 57 s, not 29 s
            return [layer, 1, state, rsum, left, j - 1, len(grp.coords), inf, 0, False]
        tail = grp.coords[j - 1:]
        # without this lower count the crowd pool took 2.7 s, not 1 s
        lo = max(0, max(state[x] - self.supply_after(g, x) for x in tail))
        hi = min(avail, max(state[x] for x in tail))
        return [layer, avail, state, rsum, left, lo, hi, inf, 0, False]

    def cover(self, budget: int) -> list[list] | None:
        """First cover of cost <= ``budget`` as the stack of frames that chose
        it, each frame's option at index 5 less one, or None.

        A failure leaves the root's proven bound in the memo (within the cap).
        """
        groups, layers, entry, lower = self.problem.groups, self.layers, self.entry, self.lower
        start = self.problem.start
        layer, avail = entry[0]
        if lower(layer, avail, start, budget) > budget:
            return None
        stack = [self.frame(layer, avail, start, sum(start), budget)]
        while stack:
            frame = stack[-1]
            layer, avail, state, rsum, left, k, hi, best, _, _ = frame
            g, j = layers[layer]
            _, _, costs, coords = groups[g]
            paid = costs[j - 1]
            child = None
            while k <= hi:
                option = k
                k += 1
                if avail == 1:
                    ocost = costs[option] - paid
                    if ocost > left:
                        best = min(best, ocost)  # later options cost even more
                        k = hi + 1
                        break
                    if option >= j and not state[coords[option - 1]]:
                        continue  # its top pass is not needed: one level lower is cheaper
                    pending = list(state)
                    nrsum = rsum
                    for x in coords[j - 1:option]:
                        if pending[x]:
                            pending[x] -= 1
                            nrsum -= 1
                    nstate = tuple(pending)
                    nlayer, navail = entry[g + 1]
                else:
                    x = coords[j - 1]
                    ocost = option * (costs[j] - paid)
                    gain = min(option, state[x])
                    nrsum = rsum - gain
                    if ocost + nrsum > left:
                        # each further copy costs at least the one vote it gains
                        best = min(best, ocost + nrsum)
                        k = hi + 1
                        break
                    nstate = state[:x] + (state[x] - gain,) + state[x + 1:] if gain else state
                    if option and j < len(coords):
                        nlayer, navail = layer + 1, option
                    else:
                        nlayer, navail = entry[g + 1]
                if nrsum == 0:
                    frame[5] = k
                    return stack
                need = lower(nlayer, navail, nstate, left - ocost)
                if need <= left - ocost:
                    child = self.frame(nlayer, navail, nstate, nrsum, left - ocost)
                    break
                if ocost + need < best:
                    best = ocost + need
            frame[5], frame[7] = k, best
            if child is not None:
                frame[8] = ocost
                stack.append(child)
                continue
            stack.pop()
            if len(self.failed) < self.state_cap:
                self.failed[(layer, avail, state)] = best - 1
            if stack:
                parent = stack[-1]
                parent[7] = min(parent[7], parent[8] + best)
                zero_slack, options_left = parent[3] == parent[4], parent[5] <= parent[6]
                # checked here, not as a bound in `lower`: that gave 20 crowd timeouts
                if zero_slack and options_left and not parent[9]:
                    parent[9] = self.exact_fit(*parent[:3])
                    if not parent[9]:
                        # no exact cover, so nothing within budget
                        parent[5], parent[7] = parent[6] + 1, parent[4] + 1
        return None


def score_exact(triple: DodgsonTriple, *, state_cap: int = DEFAULT_STATE_CAP) -> ScoreResult:
    """Exact Dodgson score with a witness allocation achieving it."""
    problem = _cover_problem(triple)
    n = triple.election.n
    if not problem.coords:
        return ScoreResult(0, (0,) * n)
    search = _CoverSearch(problem, state_cap)
    layer, avail = search.entry[0]
    # Raising the designated candidate to the top of every voter is a cover,
    # so the bound is finite and some budget succeeds.  A failed budget
    # leaves the root's proven bound in the memo, so the next try can skip
    # budgets already ruled out.
    budget = search.lower(layer, avail, problem.start)
    while (stack := search.cover(budget)) is None:
        budget = max(budget + 1, search.lower(layer, avail, problem.start, budget + 1))
    # A group's copies raise in ascending order, later frames overwriting: a count
    # frame at (g, j) sends the group's last ``option`` copies to level j, a
    # single-copy frame sends its last copy to level ``option``.
    raises = [0] * n
    for frame in stack:
        g, j = search.layers[frame[0]]
        grp = problem.groups[g]
        end = grp.flat + grp.mult
        option = frame[5] - 1
        if frame[1] == 1:
            raises[end - 1] = grp.costs[option]
        else:
            raises[end - option:end] = [grp.costs[j]] * option
    return ScoreResult(budget, tuple(raises))


def score_decision(
    triple: DodgsonTriple, budget: int, *, state_cap: int = DEFAULT_STATE_CAP
) -> bool:
    """Is the Dodgson score at most ``budget``?"""
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    problem = _cover_problem(triple)
    if sum(problem.start) > budget:
        return False
    return not problem.coords or _CoverSearch(problem, state_cap).cover(budget) is not None


def score_oracle(triple: DodgsonTriple, cap: int = DEFAULT_ORACLE_CAP) -> int | None:
    """Breadth-first search over whole profiles, one adjacent exchange anywhere
    per edge — the literal sequential-switch semantics.

    Profiles are canonicalized as sorted multisets of interned order ids
    (switch cost is voter-anonymous).  Every adjacent exchange of every
    distinct voter order is an edge, whether or not it moves the designated
    candidate.  Each state carries, per opponent, how many voters rank the
    designated candidate above it and how many opponents are still short of a
    majority; an exchange that moves the designated candidate changes one
    count by one, any other exchange changes none, so the goal test needs no
    recount.  Returns the first depth at which the designated candidate is a
    Condorcet winner, or None once ``cap`` is exceeded.  The 9-candidate,
    3-voter reductions of the canonical 3DM instances take about 1 s (yes,
    score 6) and 5 s (no, score 7).
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    election = triple.election
    index = {name: i for i, name in enumerate(election.candidates)}
    c = index[triple.designated]
    size = len(election.candidates)
    need = majority_threshold(election.n)
    ids: dict[tuple[int, ...], int] = {}
    orders: list[tuple[int, ...]] = []
    moves: list[list[tuple[int, int, int]] | None] = []

    def intern(order: tuple[int, ...]) -> int:
        oid = ids.get(order)
        if oid is None:
            oid = ids[order] = len(orders)
            orders.append(order)
            moves.append(None)
        return oid

    def moves_of(oid: int) -> list[tuple[int, int, int]]:
        """(successor id, opponent the designated candidate passes or -1, ±1)
        for each adjacent exchange of order ``oid``; built on first use."""
        found = moves[oid]
        if found is None:
            order = orders[oid]
            found = []
            for p in range(size - 1):
                low, high = order[p], order[p + 1]
                swapped = intern(order[:p] + (high, low) + order[p + 2:])
                if low == c:
                    found.append((swapped, high, 1))
                elif high == c:
                    found.append((swapped, low, -1))
                else:
                    found.append((swapped, -1, 0))
            moves[oid] = found
        return found

    start_orders = [tuple(index[x] for x in order.ranking) for order in election.profile.orders()]
    start_above = [0] * size
    for order in start_orders:
        for d in order[: order.index(c)]:
            start_above[d] += 1
    short = sum(1 for d in range(size) if d != c and start_above[d] < need)
    if short == 0:
        return 0
    start = tuple(sorted(intern(order) for order in start_orders))
    visited = {start}
    tallies: dict[tuple[int, ...], tuple[int, ...]] = {}
    frontier = [(start, tuple(start_above), short)]
    depth = 0
    while frontier and depth < cap:
        depth += 1
        nxt = []
        for state, above, short in frontier:
            for vi, oid in enumerate(state):
                if vi and oid == state[vi - 1]:
                    continue  # duplicate voter: identical successor states
                rest = state[:vi] + state[vi + 1:]
                for nid, d, delta in moves_of(oid):
                    k = bisect_left(rest, nid)
                    successor = rest[:k] + (nid,) + rest[k:]
                    if successor in visited:
                        continue
                    visited.add(successor)
                    if delta == 0:
                        # the parent did not win, so neither does this state
                        nxt.append((successor, above, short))
                        continue
                    count = above[d]
                    moved = above[:d] + (count + delta,) + above[d + 1:]
                    moved = tallies.setdefault(moved, moved)  # few distinct tallies: share them
                    if delta > 0:
                        now_short = short - (count + 1 == need)
                        if now_short == 0:
                            return depth
                    else:
                        now_short = short + (count == need)
                    nxt.append((successor, moved, now_short))
        frontier = nxt
    return None


def all_scores(election: Election, *, state_cap: int = DEFAULT_STATE_CAP) -> dict[str, int]:
    """Exact Dodgson score of every candidate; winners are the argmin set."""
    return {
        name: score_exact(DodgsonTriple(election, name), state_cap=state_cap).score
        for name in election.candidates
    }


def dodgson_winners(election: Election, *, state_cap: int = DEFAULT_STATE_CAP) -> list[str]:
    scores = all_scores(election, state_cap=state_cap)
    low = min(scores.values())
    return [name for name in election.candidates if scores[name] == low]


def _some_rival_below(
    triple: DodgsonTriple, rivals: Iterable[DodgsonTriple], state_cap: int
) -> bool:
    """Score ``triple`` exactly, then decide whether some rival scores at most
    one less.  Rivals get budget-limited decisions rather than full scoring,
    which keeps this usable on large gadget-built elections; the first rival
    found below ends the check."""
    own = score_exact(triple, state_cap=state_cap).score
    return own > 0 and any(score_decision(rival, own - 1, state_cap=state_cap) for rival in rivals)


def is_winner(triple: DodgsonTriple, *, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """Does the designated candidate tie-or-defeat every other candidate?"""
    election = triple.election
    rivals = (DodgsonTriple(election, other) for other in election.candidates
              if other != triple.designated)
    return not _some_rival_below(triple, rivals, state_cap)


def ranks_at_least(
    election: Election, c: str, d: str, *, state_cap: int = DEFAULT_STATE_CAP
) -> bool:
    """Does ``c`` tie-or-defeat ``d``, i.e. is Score(c) <= Score(d)?"""
    for name in (c, d):
        if name not in election.candidates:
            raise ValueError(f"unknown candidate {name!r}")
    if c == d:
        return True
    rival = DodgsonTriple(election, d)
    return not _some_rival_below(DodgsonTriple(election, c), [rival], state_cap)


def two_election_ranking(
    left: DodgsonTriple, right: DodgsonTriple, *, state_cap: int = DEFAULT_STATE_CAP
) -> bool:
    """Is Score(left) <= Score(right)?

    Both elections must have an odd number of voters and the designated
    candidates must differ; anything else is not a valid instance.
    """
    TwoERInstance(left, right)  # validates the pair
    return not _some_rival_below(left, [right], state_cap)


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
