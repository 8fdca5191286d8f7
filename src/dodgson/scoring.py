"""Exact Dodgson scoring and the decision problems built on it.

Two independent routes to the same quantity:

* One exact search over raise allocations (the designated candidate only ever
  moves upward).  It works on voter types, not voter copies: for each run of
  identical voters (a :class:`VoterProfile` group) and each useful raise
  level it chooses how many of the run's copies reach that level, the
  variables of Bartholdi, Tovey & Trick (1989) that make the score easy for a
  fixed number of candidates.  A budget-limited depth-first search with an
  explicit stack tries these counts in ascending order, pruned by admissible
  bounds and a failure memo.  :func:`score_decision` checks the deficit sum
  before building the cover problem and, if it fits, runs the search once at
  its budget; the winner decision first refutes each rival on a deficit sum
  that stops once it passes its budget.  :func:`score_exact` runs the search
  at rising budgets from the root bound, after two failures jumping once to
  ⌈LP⌉ of the program's relaxation, solved in exact integers, and the first
  budget that admits a cover is the score and gives the witness.  Where the
  budget left equals the residual deficit sum, only covers that pass each
  opponent exactly its residual with no wasted switch remain; an exact-fit
  check closes the frames that hold none, and the search follows the least
  cover it finds.
* :func:`score_oracle` — best-first (A*) search over whole profiles using the
  literal one-adjacent-exchange-anywhere edge relation, guided by the votes
  the designated candidate still misses.  A state holds only the voters that
  left their start order, and each state makes its successors in stages of
  f (partial expansion), so an exchanged order is built only when needed.
  This is the ground truth the raise-only model is validated against.

Everything here is pure, deterministic and in exact integers; witness ties
are broken by the lexicographically smallest per-voter raises vector under
flat voter order, in which the copies of a group raise in ascending order.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf
from typing import Callable, Container, NamedTuple, Sequence

from .elections import (DodgsonTriple, Election, TwoERInstance, VoterProfile, deficit_vector,
                        majority_threshold)

__all__ = [
    "ScoreResult",
    "score_exact",
    "score_decision",
    "score_oracle",
    "all_scores",
    "is_winner",
    "ranks_at_least",
    "two_election_ranking",
    "apply_raises",
]

DEFAULT_ORACLE_CAP = 20
_MEMO_CAP = 10_000_000  # failed states remembered per search; bounds memory on long searches


@dataclass(frozen=True)
class ScoreResult:
    score: int
    runs: tuple[tuple[int, int], ...]  # (raise, voters) in flat voter order

    @property
    def witness(self) -> tuple[int, ...]:
        """Per-voter upward switch counts, flat-indexed, built anew on each read from
        ``runs``: positive counts summing to n, with no two equal neighbours."""
        return tuple(itertools.chain.from_iterable(itertools.repeat(v, k) for v, k in self.runs))


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
    start: tuple[int, ...]  # the positive deficits, opponents in name order
    groups: tuple[_Group, ...]


def _cover_problem(triple: DodgsonTriple, deficits: dict[str, int]) -> _CoverProblem:
    coord_index = {name: i for i, name in enumerate(sorted(d for d, v in deficits.items() if v > 0))}
    start = tuple(deficits[name] for name in coord_index)
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
    return _CoverProblem(start, tuple(groups))


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
    options are left, :meth:`least_fit` closes the frame, which then fails,
    if :meth:`exact_fit` finds no such cover; otherwise the frame keeps only
    its least option with one, and its children follow that cover down
    without backtracking.  Only options with no cover within budget go and
    the options keep their order, so scores and witnesses are those of the
    plain search; a search that meets its cover without backtracking never
    checks.  A frame that fails leaves its budget left in the memo.  A pool
    time below is one in-process run of its stored benchmark ops, 5 s limit
    per op (Python 3.11, 2 shared cores).
    """

    def __init__(self, problem: _CoverProblem):
        self.problem = problem
        groups = problem.groups
        # (cover, L): frames that follow this cover down to layer L take its counts
        self.proof: tuple[dict[int, int] | None, int] = (None, -1)
        # (layer, copies available, residual) -> the budget left at which a
        # frame there found no cover; the only record ``_MEMO_CAP`` caps.
        self.failed: dict[tuple[int, int, tuple[int, ...]], int] = {}
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
        passes: list[dict[int, tuple[list[int], list[int]]]] = [{} for _ in problem.start]
        self.free = [([], [0]) for _ in problem.start]
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

        One more than the memo's failed budget where that is at least
        ``left``, else the largest of:

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
          passes x at most once), bucket by bucket in ascending cost until
          r_x are met; inf when fewer than r_x copies can.

        Stops early once the bound exceeds ``left``.
        """
        if layer == len(self.layers):
            return inf
        prior = self.failed.get((layer, avail, state))
        if prior is not None and left <= prior:
            return prior + 1
        g, j = self.layers[layer]
        passes, waste_free = self.passes, self.free
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
                # efficient supply; without it the crowd pool took 1.7 s, not 0.5 s
                where, cum = waste_free[x]
                free = cum[-1] - cum[bisect_right(where, g)] + (avail if mine and mine[1] else 0)
                if rsum + need - free > best:
                    best = rsum + need - free
            paid = mine[0] if mine else inf  # the group's own copies, at the level below this layer
            total = 0
            for cost, (where, cum) in passes[x]:
                if paid <= cost:
                    # with min() here and a dict for `own`, `lower` ran 25% slower on gadgets
                    if need <= avail:
                        total += need * paid
                        break
                    total += avail * paid
                    need -= avail
                    paid = inf
                supply = cum[-1] - cum[bisect_right(where, g)]
                if need <= supply:
                    total += need * cost
                    break
                total += supply * cost
                need -= supply
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
        own: list[tuple[int, bool] | None] = [None] * len(self.problem.start)
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

    def exact_fit(self, layer: int, avail: int, state: tuple[int, ...], low: int = 0,
                  high: float = inf, cap: tuple[int, int] | None = None) -> dict[int, int] | None:
        """Copies from ``layer`` on passing each opponent x exactly ``state[x]``
        times at one switch per pass, with the option at ``layer`` in [``low``,
        ``high``], as ``{layer: copies reaching its level}`` (non-zero counts
        only), or None.  Not cached: the frame follows it.  With more than one
        copy, ``cap`` = (L, most) holds the count at layer L of its run to ``most``.

        A variable counts the copies of a run that reach one of its waste-free
        levels; the runs, laid out on each call, are this layer's ``avail``
        copies from the level below it and each later group from level 0.
        Counts do not increase along a run and each opponent's sum to its
        residual.  The option is the run's first count, or with one copy its
        final level: the count at level ``low`` is 1 and at ``high`` + 1 is 0.
        Bounds propagate to a fixpoint, then one count of the opponent with
        the fewest free counts is split in two, as Algorithm X branches on its
        most constrained column; only an opponent's bound sums leaving its
        residual refute a node.  A node keeps each opponent's number of free
        counts, which the branch scans, and a bound on its widest count: a
        count narrows only when wider than its opponent's gap, the residual's
        distance to the nearer bound sum, so settle skips an opponent whose
        bound is within it.
        """
        g, j = self.layers[layer]
        runs = [((layer, avail), self.run_from(g, j))]
        runs += zip(self.entry[g + 1:], self.waste_free[g + 1:])
        # counts in run order: each one's layer, opponent, whether it starts a run
        # (with an end marker) and upper bound, the run's copies or the count before
        # cut by the residual; of[x]: opponent x's counts, shi[x]: their bounds' sum,
        # nfree[x]: how many are free (lo < hi), wide[x]: a bound on their widths
        where, opp, head, hi, shi, nfree = [], [], [], [], [0] * len(state), [0] * len(state)
        of: list[list[int]] = [[] for _ in state]
        for (first, top), xs in runs:
            for i, x in enumerate(xs):
                of[x].append(len(opp))
                where.append(first + i)
                opp.append(x)
                head.append(i == 0)
                if state[x] < top:
                    top = state[x]  # with min() here the checks of 3dm-12 `t` took 24% longer
                hi.append(top)
                shi[x] += top
                if top:
                    nfree[x] += 1
        head.append(True)

        def tighten(node, v, low, high, dirty):
            """Narrow count v to [low, high], walking the change along its run.

            No range empties.  Along a run lo and hi never increase, and lo <= hi.
            settle's [need - high + hi[v], need - low + lo[v]] meets v's range,
            as low <= need <= high, and is not empty, as high - low >= hi[v] -
            lo[v]; a split keeps a non-empty half.  So the forward walk meets
            only lo <= high, and the backward walk only hi >= low.
            """
            lo, hi, slo, shi, nfree, _ = node
            u = v
            while hi[u] > high:
                x = opp[u]
                shi[x] += high - hi[u]
                hi[u] = high
                if lo[u] == high:
                    nfree[x] -= 1
                dirty.add(x)
                u += 1
                if head[u]:
                    break
            u = v
            # the backward walk; stopping at v, the gadget pool took 5.4 s, not 2.2 s,
            # and the crowd pool 20.7 s, not 0.5 s, with 4 crowd-14 ops past 5 s
            while lo[u] < low:
                x = opp[u]
                slo[x] += low - lo[u]
                lo[u] = low
                if hi[u] == low:
                    nfree[x] -= 1
                dirty.add(x)
                if head[u]:
                    break
                u -= 1

        def settle(node, dirty):
            lo, hi, slo, shi, _, wide = node
            while dirty:
                x = dirty.pop()
                need, low, high = state[x], slo[x], shi[x]
                if not low <= need <= high:
                    return False
                gap = min(high - need, need - low)
                if wide[x] > gap:
                    for v in of[x]:
                        if hi[v] - lo[v] > gap:
                            tighten(node, v, need - high + hi[v], need - low + lo[v], dirty)
                    wide[x] = gap  # a narrowed count is now at most gap wide
            return True

        # the option's limits (count, least, most), checked so that no range empties
        n = len(runs[0][1])
        limits = ([(0, low, high)] if avail > 1 else
                  [(max(low - j, 0), int(low >= j), 1), (high + 1 - j, 0, 0)])
        if cap is not None:
            limits.append((cap[0] - layer, 0, cap[1]))
        node = [[0] * len(opp), hi, [0] * len(state), shi, nfree, list(state)]
        dirty = set(range(len(state)))
        for v, least, most in limits:
            if least > (hi[v] if v < n else 0):
                return None
            if v < n:
                tighten(node, v, least, most, dirty)
        todo = [(*node, dirty)]
        while todo:
            *node, dirty = todo.pop()
            if not settle(node, dirty):
                continue
            lo, hi, nfree = node[0], node[1], node[4]
            fewest = min(filter(None, nfree), default=0)
            if not fewest:
                return {where[v]: count for v, count in enumerate(lo) if count}
            v = next(v for v in reversed(of[nfree.index(fewest)]) if lo[v] < hi[v])
            mid = (lo[v] + hi[v]) // 2
            for half, low, high in (([p[:] for p in node], mid + 1, hi[v]), (node, lo[v], mid)):
                dirty = set()
                tighten(half, v, low, high, dirty)
                todo.append((*half, dirty))
        return None

    def frame(self, layer: int, avail: int, state: tuple[int, ...], rsum: int, left: int) -> list:
        """A new frame: [layer, copies available, residual, its sum, budget
        left, next option, last option, the exact cover it follows or None].

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
            # without single-copy frames the gadget pool took 6.6 s, not 2.2 s
            return [layer, 1, state, rsum, left, j - 1, len(grp.coords), None]
        tail = grp.coords[j - 1:]
        # without this lower count the crowd pool took 1.0 s, not 0.5 s
        lo = max(0, max(state[x] - self.supply_after(g, x) for x in tail))
        hi = min(avail, max(state[x] for x in tail))
        return [layer, avail, state, rsum, left, lo, hi, None]

    def option(self, frame: list, cover: dict[int, int]) -> int:
        """``frame``'s option in ``cover``: its count, or one copy's final level."""
        layer = frame[0]
        if frame[1] > 1:
            return cover.get(layer, 0)
        g, j = self.layers[layer]
        return j - 1 + sum(k in cover for k in range(layer, self.entry[g + 1][0]))

    def least_fit(self, frame: list, cover: dict[int, int] | None = None) -> None:
        """Narrow zero-slack ``frame`` to its least option from the next with
        an exact cover below, and follow that cover; close it if there is none.

        A cover with option o is given or found over all the options left.
        Whether one has its option in [next, m] only turns true as m grows, so
        after a check of [next, o - 1] a bisection finds the least: a hit
        lowers o to its cover's option, a miss moves next past m.  Counts
        never rise along a run, so where a count frame's cover keeps count
        o >= 2 at the next layers of its run, a miss of one check from next
        with the deepest of those counts at most o - 1 shows that they all
        take o, unchecked.
        """
        layer, avail, state, _, _, low, hi = frame[:7]
        if cover is None:
            cover = self.exact_fit(layer, avail, state, low, hi)
            if cover is None:
                frame[5] = hi + 1  # no exact cover, so nothing within budget
                return
        o = self.option(frame, cover)
        # most least options are o, so [low, o - 1] is checked whole first: bisecting
        # from the start took 2,941 gadget-pool checks, not 1,680; only whole checks
        # took 132 on crowd-14 `b`, not 13
        m = o - 1
        proved, deepest = self.proof
        if cover is proved and layer <= deepest:
            m = low - 1  # a frame above proved it
        elif avail > 1 and o > 1:
            g, j = self.layers[layer]
            deep, end = layer, layer + len(self.run_from(g, j))
            while deep + 1 < end and cover.get(deep + 1) == o:
                deep += 1
            if deep > layer:
                found = self.exact_fit(layer, avail, state, low, o, (deep, o - 1))
                if found is None:
                    self.proof, m = (cover, deep), low - 1
                else:
                    cover, o = found, self.option(frame, found)
                    m = o - 1
        while low <= m:
            found = self.exact_fit(layer, avail, state, low, m)
            if found is None:
                low = m + 1
            else:
                cover, o = found, self.option(frame, found)
            m = (low + o - 1) // 2
        frame[5], frame[6], frame[7] = o, o, cover

    def cover(self, budget: int) -> list[list] | None:
        """First cover of cost <= ``budget`` as the stack of frames that chose
        it, each frame's option at index 5 less one, or None.  A frame that
        follows an exact cover tries only an option with one, and never fails.

        A failure leaves the budget in the memo under the root's key (within
        ``_MEMO_CAP``).
        """
        groups, layers, entry, lower = self.problem.groups, self.layers, self.entry, self.lower
        start = self.problem.start
        layer, avail = entry[0]
        if lower(layer, avail, start, budget) > budget:
            return None
        stack = [self.frame(layer, avail, start, sum(start), budget)]
        while stack:
            frame = stack[-1]
            layer, avail, state, rsum, left, k, hi, _ = frame
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
                        k = hi + 1  # later options cost even more
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
                        k = hi + 1  # each further copy costs at least the one vote it gains
                        break
                    nstate = state[:x] + (state[x] - gain,) + state[x + 1:] if gain else state
                    if option and j < len(coords):
                        nlayer, navail = layer + 1, option
                    else:
                        nlayer, navail = entry[g + 1]
                if nrsum == 0:
                    frame[5] = k
                    return stack
                if lower(nlayer, navail, nstate, left - ocost) <= left - ocost:
                    child = self.frame(nlayer, navail, nstate, nrsum, left - ocost)
                    if frame[7] is not None:
                        # the child narrows this cover; left to find their own, children
                        # took 2,399 gadget-pool checks, not 1,680 (3dm-8 `s` 42, not 28)
                        self.least_fit(child, frame[7])
                    break
            frame[5] = k
            if child is not None:
                stack.append(child)
                continue
            stack.pop()
            if len(self.failed) < _MEMO_CAP:
                self.failed[(layer, avail, state)] = left
            if stack:
                parent = stack[-1]
                # checked here, not as a bound in `lower` (20 crowd timeouts) nor on each
                # new zero-slack frame (sum-8's ops 0.2-1.0 -> 1.1-6.4 ms, 8 crowd ops
                # over 5 s), both measured on earlier trees; a frame following a
                # cover never gets here
                if parent[3] == parent[4] and parent[5] <= parent[6]:
                    self.least_fit(parent)
        return None


def _dual_bound(problem: _CoverProblem, y: Sequence[int], scale: int = 1) -> int:
    """⌈L(y / scale)⌉, the Lagrangian bound on a cover's cost, in integers.

    Relaxing the cover rows of the Bartholdi–Tovey–Trick program with weights
    y >= 0 on the opponents leaves each copy free to stop at the level that
    earns most:  L(y) = sum_x y_x r_x - sum_copies max_k (sum of y_x over the
    opponents passed at level k - cost_k), level 0 earning 0.  Every cover
    costs at least L(y) (weak duality), so the bound is admissible for any
    y >= 0, optimal or not, and at the LP optimum it is the LP's value.  y = 1
    gives the deficit sum, y = 1 + e_x the efficient-supply bound of x, and
    y = t e_x, t the r_x-th cheapest cost of passing x, the cost of x's r_x
    cheapest passes.
    """
    total = sum(w * r for w, r in zip(y, problem.start))
    for grp in problem.groups:
        best = run = 0
        for k, x in enumerate(grp.coords, start=1):
            run += y[x]
            best = max(best, run - scale * grp.costs[k])
        total -= grp.mult * best
    return -(-total // scale)


def _lp_weights(problem: _CoverProblem) -> tuple[list[int], int]:
    """Integer weights y and a divisor d such that y / d solves the dual of the
    LP relaxation of the Bartholdi–Tovey–Trick program exactly.

    The dual maximises sum_x r_x y_x - sum_t mult_t u_t over y, u >= 0, with
    one row  sum of y_x over the opponents passed at level k - u_t <= cost_k
    per distinct voter type t = (costs, coords) and level k >= 1; copies of
    one type, in any group, share one u_t.  The costs are >= 0, so the origin
    is a feasible basis and a dense Tucker tableau needs no first phase; every
    deficit can be covered, so the dual is bounded and a ratio row always
    exists.  The tableau is fraction-free (Bareiss 1968): each entry is its
    value times d, the last pivot, and every division is exact.  So Bland's
    rule ends, with no pivot cap, and ⌈L(y / d)⌉ is ⌈LP⌉.
    """
    types: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for grp in problem.groups:
        types[grp.costs, grp.coords] = types.get((grp.costs, grp.coords), 0) + grp.mult
    nx = len(problem.start)
    n = nx + len(types)
    # rows [coefficients..., right-hand side], the objective row last
    rows = []
    for t, (costs, coords) in enumerate(types):
        row = [0] * (n + 1)
        row[nx + t] = -1
        for k, x in enumerate(coords, start=1):
            row[x], row[n] = 1, costs[k]
            rows.append(row[:])
    rows.append([-r for r in problem.start] + list(types.values()) + [0])
    m = len(rows) - 1
    basic, free = list(range(n, n + m)), list(range(n))
    d = 1
    while True:
        obj = rows[m]
        s = min((j for j in range(n) if obj[j] < 0), key=free.__getitem__, default=None)
        if s is None:
            break
        r = None  # the least ratio b_i / a_is, compared across; ties to the least basic variable
        for i in range(m):
            a = rows[i][s]
            if a > 0 and (r is None or
                          (rows[i][n] * rows[r][s], basic[i]) < (rows[r][n] * a, basic[r])):
                r = i
        pivot, p = rows[r], rows[r][s]
        for i, row in enumerate(rows):
            f = row[s]
            if i != r and (f or p != d):
                rows[i] = [(a * p - f * b) // d for a, b in zip(row, pivot)]
                rows[i][s] = -f
        pivot[s], d = d, p
        basic[r], free[s] = free[s], basic[r]
    row_of = {v: i for i, v in enumerate(basic)}
    return [rows[row_of[x]][n] if x in row_of else 0 for x in range(nx)], d


def score_exact(triple: DodgsonTriple) -> ScoreResult:
    """Exact Dodgson score with the lexicographically least witness achieving it.

    The search runs at rising budgets from the root bound, one apart, sharing
    its memo.  After the second failure the ladder jumps once to ⌈LP⌉, which
    is ⌈L(y / d)⌉ of :func:`_dual_bound` at the exact LP weights y / d of
    :func:`_lp_weights`, if that is higher.  Every bound is at most the score,
    so only budgets below it are skipped: the first budget that admits a
    cover is the score, and its first cover the witness, read off as runs.
    """
    problem = _cover_problem(triple, deficit_vector(triple))
    if not problem.start:
        return ScoreResult(0, ((0, triple.election.n),))
    search = _CoverSearch(problem)
    layer, avail = search.entry[0]
    # Raising the designated candidate to the top of every voter is a cover,
    # so the bound is finite and some budget succeeds.
    budget = search.lower(layer, avail, problem.start)
    failed = 0
    while (stack := search.cover(budget)) is None:
        failed += 1
        budget += 1
        if failed == 2:
            # Not after the first failure: 23 gadget-pool ops find their cover
            # at the next budget, scored whole in 0.1-1.7 ms, and the exact LP
            # would add 0.04-4.1 ms (best of 7, Python 3.11, 2 shared cores).
            # Jumping after the first failure cuts the gadget pool from 4.3 to
            # 1.2 s (merge separators 0.4-0.7 s -> 10 ms), but the one-step
            # ladders then pay it (parity2-3.exact.322 0.73 -> 3.95 ms): gadget
            # pass_s went 0.143-0.167 -> 0.181-0.205 s and verdict_tail_ms
            # 1.34-1.63 -> 3.51-4.25 ms (4 pairs, seeds 41-44).
            budget = max(budget, _dual_bound(problem, *_lp_weights(problem)))
    # A group's copies raise in ascending order: a count frame at (g, j) keeps
    # ``avail - option`` copies at level j-1 and moves ``option`` to level j, a
    # single-copy frame moves its copy to ``option``; a group's last move stays.
    pieces, carry, end = [], (0, 0), 0
    for frame in stack:
        g, j = search.layers[frame[0]]
        flat, mult, costs, _ = problem.groups[g]
        avail, option = frame[1], frame[5] - 1
        if j == 1:  # the group's first frame; the voters since the last group raise 0
            pieces += carry, (0, flat - end)
            end = flat + mult
        level, moved = (option, 1) if avail == 1 else (j, option)
        pieces.append((costs[j - 1], avail - moved))
        carry = (costs[level], moved)
    runs = [(None, 0)]  # a sentinel that matches no raise
    for v, k in pieces + [carry, (0, triple.election.n - end)]:
        if k:  # a raise equal to the last run's joins it
            runs.append((v, runs.pop()[1] + k) if v == runs[-1][0] else (v, k))
    return ScoreResult(budget, tuple(runs[1:]))


def score_decision(triple: DodgsonTriple, budget: int) -> bool:
    """Is the Dodgson score at most ``budget``?"""
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    deficits = deficit_vector(triple)
    if sum(deficits.values()) > budget:
        return False
    problem = _cover_problem(triple, deficits)
    return not problem.start or _CoverSearch(problem).cover(budget) is not None


def score_oracle(triple: DodgsonTriple, cap: int = DEFAULT_ORACLE_CAP) -> int | None:
    """Best-first (A*) search over whole profiles, one adjacent exchange
    anywhere per edge — the literal sequential-switch semantics.

    h is the votes the designated candidate c still misses, summed over its
    opponents.  An exchange changes at most one count by one, so each edge
    raises f = depth + h by Δ = 0 (a raise of c past an opponent still short
    of a majority), 2 (a lowering below an opponent that then falls short)
    or 1 (any other exchange), and h = 0 is the goal.  The start's voters are
    merged into one group per distinct order; a state is the sorted tuple of
    (group, current order) of the voters that left their start order, at
    most ``depth`` entries whatever n is.

    Partial expansion (Yoshizumi, Miura & Ishida, AAAI 2000): popped at its
    own f0 a state makes its Δ = 0 successors, at f0 + 1 its Δ = 1 ones and,
    when some voter can lower c below an opponent it needs, at f0 + 2 those.
    Every successor is made at the f being expanded, so a state is final
    when first seen, and an exchanged order is built once per (order,
    position), when a successor needs it.  Within one f the states missing
    the fewest votes go first, and every raise is tried before any other
    exchange.  Nothing above ``cap`` is made; None means the score exceeds
    ``cap``.
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    election = triple.election
    index = {name: i for i, name in enumerate(election.candidates)}
    c = index[triple.designated]
    size = len(election.candidates)
    need = majority_threshold(election.n)
    start_above = [0] * size  # per opponent, voters ranking the designated candidate above it
    for order, mult in election.profile.groups:  # counted on groups, not voters
        for name in order.ranking[:order.position(triple.designated)]:
            start_above[index[name]] += mult
    h0 = sum(max(0, need - start_above[d]) for d in range(size) if d != c)
    if h0 == 0:
        return 0
    if h0 > cap:
        return None  # decided before anything is held per voter
    ids: dict[tuple[int, ...], int] = {}
    orders: list[tuple[int, ...]] = []
    nbrs: list[tuple[int, int]] = []  # per order, the opponents just above and below c, or -1
    rise: dict[int, int] = {}  # per order, once built: the designated candidate one place up
    fall: dict[int, int] = {}  # and one place down
    side: dict[int, list[tuple[int, int, int]]] = {}  # and every other exchange, as moves

    def intern(order: tuple[int, ...]) -> int:
        oid = ids.get(order)
        if oid is None:
            oid = ids[order] = len(orders)
            orders.append(order)
            p = order.index(c)
            nbrs.append((order[p + 1] if p + 1 < size else -1, order[p - 1] if p else -1))
        return oid

    def swap(oid: int, q: int) -> int:
        order = orders[oid]
        return intern(order[:q] + (order[q + 1], order[q]) + order[q + 2:])

    mults: dict[int, int] = {}  # group g starts at order g
    for order, mult in election.profile.groups:
        g = intern(tuple(index[x] for x in order.ranking))
        mults[g] = mults.get(g, 0) + mult
    # a voter is the key g << 32 | order; an entry's ``free`` holds (-1, key)
    # for each group with a voter still at its start order
    tallies = [tuple(start_above)]  # the distinct per-opponent counts, by id
    tally_ids = {tallies[0]: 0}
    steps: dict[tuple[int, int, int], int] = {}  # (tally, opponent, change) -> tally
    seen: set[tuple[int, ...]] = {()}
    stack = [((), 0, h0, h0, tuple((-1, g << 32 | g) for g in range(len(mults))))]
    for bound in range(h0, cap + 1):
        stack.sort(key=lambda entry: entry[2], reverse=True)  # fewest missing votes popped first
        later: list = []  # the states going back for their next stage, all at f = bound + 1
        deferred: list = []  # the states whose other exchanges wait for every raise of this f
        phase = 0
        while stack or deferred:
            if not stack:
                stack, deferred, phase = deferred[::-1], [], 1
            state, t, h, f0, free = entry = stack.pop()
            above, stage = tallies[t], bound - f0
            now_h = h - 1 + stage  # every successor made here has f = bound
            if stage and phase == 0:  # its exchanges other than raises wait for phase 1
                deferred.append(entry)
                if stage == 2:
                    continue
            raising = stage == 0 or phase == 0
            worse = False  # some voter can lower the designated candidate below a needed opponent
            for k, key in itertools.chain(enumerate(state), free):
                if k > 0 and key == state[k - 1]:
                    continue  # a second voter of its group at the same order
                oid = key & 0xFFFFFFFF
                up, down = nbrs[oid]
                if raising:
                    if up < 0 or (above[up] >= need) != (stage == 1):
                        continue  # no raise of this stage
                    if now_h == 0:
                        return f0  # the raise leaves no vote missing
                    if oid not in rise:
                        rise[oid] = swap(oid, orders[oid].index(c))
                    moves = ((rise[oid], up, 1),)
                else:
                    moves = []
                    if down >= 0 and (above[down] <= need) == (stage == 2):
                        if oid not in fall:
                            fall[oid] = swap(oid, orders[oid].index(c) - 1)
                        moves.append((fall[oid], down, -1))
                    worse = worse or down >= 0 and above[down] <= need
                    if stage == 1:
                        if oid not in side:
                            p = orders[oid].index(c)
                            side[oid] = [(swap(oid, q), -1, 0)
                                         for q in range(size - 1) if q not in (p - 1, p)]
                        moves += side[oid]
                g = key >> 32
                for nid, d, delta in moves:
                    if k < 0:
                        at = bisect_left(state, g << 32 | nid)
                        successor = state[:at] + (g << 32 | nid,) + state[at:]
                    elif nid == g:
                        successor = state[:k] + state[k + 1:]
                    else:
                        successor = state[:k] + (g << 32 | nid,) + state[k + 1:]
                        if mults[g] > 1:
                            successor = tuple(sorted(successor))
                    if successor in seen:
                        continue
                    seen.add(successor)
                    nt = t
                    if delta:
                        nt = steps.get((t, d, delta))
                        if nt is None:
                            moved = above[:d] + (above[d] + delta,) + above[d + 1:]
                            nt = steps[t, d, delta] = tally_ids.setdefault(moved, len(tallies))
                            if nt == len(tallies):
                                tallies.append(moved)
                    now_free = free
                    if nid == g and (-1, g << 32 | g) not in free:  # back at its start order
                        now_free = free + ((-1, g << 32 | g),)
                    elif k < 0 and sum(x >> 32 == g for x in successor) == mults[g]:
                        now_free = tuple(x for x in free if x[1] != key)  # its group's last left
                    stack.append((successor, nt, now_h, bound, now_free))
            if stage == 0 or stage == 1 and phase == 1 and worse:
                later.append(entry)
        stack = later
    return None


def all_scores(election: Election) -> dict[str, int]:
    """Exact Dodgson score of every candidate; winners are the argmin set."""
    return {name: score_exact(DodgsonTriple(election, name)).score for name in election.candidates}


def _deficit_sum_over(election: Election) -> Callable[[str, int], bool]:
    """``over(name, budget)``: does ``name``'s deficit sum exceed ``budget``?

    Indexes each candidate's position in every voter group once, then sums
    the deficits opponent by opponent and stops as soon as the sum passes
    the budget, so a rival that its first few opponents refute costs a few
    reads per group rather than a walk of every group's whole order.
    """
    mults = [mult for _, mult in election.profile.groups]
    positions: dict[str, list[int]] = {name: [] for name in election.candidates}
    for order, _ in election.profile.groups:
        for i, name in enumerate(order.ranking):
            positions[name].append(i)
    spare = election.n - majority_threshold(election.n)

    def over(name: str, budget: int) -> bool:
        mine = positions[name]
        total = 0
        for d in election.candidates:  # ``name`` itself is never above, and adds 0
            above = sum(m for p, q, m in zip(positions[d], mine, mults) if p > q)
            if above > spare:
                total += above - spare
                if total > budget:
                    return True
        return False

    return over


def _rival_at_most(election: Election, budget: int, skip: Container[str]) -> str | None:
    """The first candidate not in ``skip``, in candidate order, whose score is at
    most ``budget``, or None.  A rival whose deficit sum alone exceeds the budget
    is refuted by :func:`_deficit_sum_over`, the others by :func:`score_decision`."""
    over = _deficit_sum_over(election)
    return next((name for name in election.candidates if name not in skip and not over(name, budget)
                 and score_decision(DodgsonTriple(election, name), budget)), None)


def is_winner(triple: DodgsonTriple) -> bool:
    """Does the designated candidate tie-or-defeat every other candidate?

    Scores it exactly, then looks with :func:`_rival_at_most` for a rival
    scoring at most one less.  On the 2,900-candidate winner reduction of one
    parity chain this takes 0.1 s (Python 3.11, 2 shared cores).
    """
    own = score_exact(triple).score
    return own == 0 or _rival_at_most(triple.election, own - 1, (triple.designated,)) is None


def ranks_at_least(election: Election, c: str, d: str) -> bool:
    """Does ``c`` tie-or-defeat ``d``, i.e. is Score(c) <= Score(d)?"""
    for name in (c, d):
        if name not in election.candidates:
            raise ValueError(f"unknown candidate {name!r}")
    if c == d:
        return True
    own = score_exact(DodgsonTriple(election, c)).score
    return own == 0 or not score_decision(DodgsonTriple(election, d), own - 1)


def two_election_ranking(left: DodgsonTriple, right: DodgsonTriple) -> bool:
    """Is Score(left) <= Score(right)?

    Both elections must have an odd number of voters and the designated
    candidates must differ; anything else is not a valid instance.
    """
    TwoERInstance(left, right)  # validates the pair
    own = score_exact(left).score
    return own == 0 or not score_decision(right, own - 1)


def apply_raises(triple: DodgsonTriple, raises: Sequence[int]) -> Election:
    """Apply a per-voter raise allocation to the designated candidate.

    Used to check witnesses: applying a ScoreResult witness must produce an
    election whose Condorcet winner is the designated candidate.
    """
    election = triple.election
    if len(raises) != election.n:
        raise ValueError(f"expected {election.n} raise entries, got {len(raises)}")
    # raise each run of equal voters and equal steps once, and hold no voter
    runs = itertools.groupby(zip(election.profile.orders(), raises))
    orders = (itertools.repeat(order.raised(triple.designated, int(step)), sum(1 for _ in run))
              for (order, step), run in runs)
    profile = VoterProfile.from_orders(itertools.chain.from_iterable(orders))
    return Election(election.candidates, profile)
