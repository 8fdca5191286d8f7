"""Reference Dodgson scores from the voter-type integer program of Bartholdi,
Tovey & Trick (1989), "Voting schemes for which it can be difficult to tell
who won the election".

Only the reference generator (``make_refs.py``) imports this module; a
benchmark run reads the stored answers and never needs SciPy.

The program works on voter types (distinct orders with a multiplicity), not on
voter copies.  Variable x[t, j] counts the voters of type t that raise the
designated candidate by exactly j positions; raising by j costs j switches and
gains one vote against each of the j candidates passed.  The deficits are
computed here from the raw orders, not with the package under test.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix


def deficits(orders: Counter, candidates, designated: str) -> dict[str, int]:
    """Votes ``designated`` still needs against each opponent (ascending orders)."""
    n = sum(orders.values())
    need = n // 2 + 1
    wins = {d: 0 for d in candidates if d != designated}
    for ranking, mult in orders.items():
        above = set(ranking[ranking.index(designated) + 1:])
        for d in wins:
            if d not in above:
                wins[d] += mult
    return {d: max(0, need - v) for d, v in wins.items()}


def btt_score(orders: Counter, candidates, designated: str) -> int:
    """Exact Dodgson score of ``designated``; ``orders`` maps ascending ranking
    tuples to multiplicities."""
    deficit = deficits(orders, candidates, designated)
    rows = {d: i for i, d in enumerate(sorted(d for d, v in deficit.items() if v > 0))}
    if not rows:
        return 0
    columns = []  # (type index, raise j, passed candidates)
    types = sorted(orders)
    for ti, ranking in enumerate(types):
        above = ranking[ranking.index(designated) + 1:]
        for j in range(1, len(above) + 1):
            columns.append((ti, j, above[:j]))
    cover = lil_matrix((len(rows), len(columns)))
    per_type = lil_matrix((len(types), len(columns)))
    for col, (ti, j, passed) in enumerate(columns):
        per_type[ti, col] = 1
        for d in passed:
            if d in rows:
                cover[rows[d], col] = 1
    lower = np.array([deficit[d] for d in sorted(rows, key=rows.get)], dtype=float)
    caps = np.array([orders[t] for t in types], dtype=float)
    result = milp(
        c=np.array([j for _, j, _ in columns], dtype=float),
        constraints=[
            LinearConstraint(cover.tocsr(), lower, np.inf),
            LinearConstraint(per_type.tocsr(), 0, caps),
        ],
        integrality=np.ones(len(columns)),
        bounds=Bounds(0, np.array([orders[types[ti]] for ti, _, _ in columns], dtype=float)),
    )
    if result.status != 0:
        raise RuntimeError(f"integer program not solved to optimality: {result.message}")
    score = round(result.fun)
    if abs(result.fun - score) > 1e-6:
        raise RuntimeError(f"non-integral optimum {result.fun}")
    return score


def election_orders(election) -> Counter:
    """Voter types of a package ``Election`` as plain ranking tuples."""
    orders: Counter = Counter()
    for order, mult in election.profile.groups:
        orders[order.ranking] += mult
    return orders


def all_btt_scores(election) -> dict[str, int]:
    orders = election_orders(election)
    return {c: btt_score(orders, election.candidates, c) for c in election.candidates}
