"""Metamorphic laws of the Dodgson score: each relates two exact scores, so it
holds at any size and reaches past the oracle and the LP bound.

For the designated candidate c:
- renaming the candidates keeps the score and the least witness, since the
  set of optimal raise vectors does not depend on names (the search meets
  the opponents in another order: they are sorted by name);
- permuting the voters keeps the score;
- raising c one place in one voter gives the old score or one less, and
  lowering it one place gives the old score or one more;
- adding a voter and its reversal keeps the deficits (c gains one vote over
  every opponent as the majority rises by one) and does not raise the score.
The Dodgson rule is not homogeneous (Fishburn 1977), so there is no law for
copying every voter.
"""

import random

import pytest

from dodgson import (
    DodgsonTriple,
    Election,
    PreferenceOrder,
    VoterProfile,
    deficit_vector,
    score_exact,
)

from conftest import impartial_culture, time_limit


def _score(t: DodgsonTriple) -> int:
    return score_exact(t).score


def _rebuilt(t: DodgsonTriple, orders) -> DodgsonTriple:
    return DodgsonTriple(Election(t.election.candidates, VoterProfile.from_orders(orders)),
                         t.designated)


def _renamed(t: DodgsonTriple, rng: random.Random) -> DodgsonTriple:
    """Each candidate gets a new name; the names' sorted order is shuffled."""
    ranks = list(range(len(t.election.candidates)))
    rng.shuffle(ranks)
    new = {name: f"n{rank}" for name, rank in zip(t.election.candidates, ranks)}
    groups = tuple((PreferenceOrder(tuple(new[x] for x in order.ranking)), mult)
                   for order, mult in t.election.profile.groups)
    election = Election(tuple(new[x] for x in t.election.candidates), VoterProfile(groups))
    return DodgsonTriple(election, new[t.designated])


def _moved(t: DodgsonTriple, rng: random.Random, up: bool) -> DodgsonTriple | None:
    """c one place up (or down) in one voter that has room, or None."""
    orders = list(t.election.profile.orders())
    top = len(t.election.candidates) - 1
    room = [i for i, order in enumerate(orders)
            if order.position(t.designated) != (top if up else 0)]
    if not room:
        return None
    i = rng.choice(room)
    order = orders[i]
    below = order.ranking[order.position(t.designated) - 1]
    orders[i] = order.raised(t.designated, 1) if up else order.raised(below, 1)
    return _rebuilt(t, orders)


def _with_reversal(t: DodgsonTriple, rng: random.Random) -> DodgsonTriple:
    names = list(t.election.candidates)
    rng.shuffle(names)
    extra = [PreferenceOrder(tuple(names)), PreferenceOrder(tuple(reversed(names)))]
    return _rebuilt(t, list(t.election.profile.orders()) + extra)


def _check_laws(t: DodgsonTriple, rng: random.Random) -> None:
    base = score_exact(t)
    renamed = score_exact(_renamed(t, rng))
    assert (renamed.score, renamed.witness) == (base.score, base.witness), "renaming"
    orders = list(t.election.profile.orders())
    rng.shuffle(orders)
    assert _score(_rebuilt(t, orders)) == base.score, "permuting voters"
    raised = _moved(t, rng, up=True)
    if raised is not None:
        assert _score(raised) in (base.score - 1, base.score), "raising c"
    lowered = _moved(t, rng, up=False)
    if lowered is not None:
        assert _score(lowered) in (base.score, base.score + 1), "lowering c"
    widened = _with_reversal(t, rng)
    assert deficit_vector(widened) == deficit_vector(t), "voter plus reversal"
    assert _score(widened) <= base.score, "voter plus reversal"


def test_laws_on_seeded_small_elections():
    # 400 elections with 2-6 candidates and 1-11 voters
    for i in range(400):
        rng = random.Random(f"laws:{i}")
        names = tuple("abcdef"[:rng.randint(2, 6)])
        orders = [PreferenceOrder(tuple(rng.sample(names, len(names))))
                  for _ in range(rng.randint(1, 11))]
        t = DodgsonTriple(Election(names, VoterProfile.from_orders(orders)), rng.choice(names))
        _check_laws(t, rng)


@pytest.mark.parametrize("seed", range(3))
def test_laws_on_a_thousand_and_one_voters(seed):
    # the 1,001-voter, 483-group election of the crowd pool (score 283); the
    # voter permutation leaves nearly every voter a group of its own
    t = DodgsonTriple(impartial_culture(6, 1001, "crowd:2", 0.192), "e")
    with time_limit(20):
        _check_laws(t, random.Random(f"crowd-laws:{seed}"))
