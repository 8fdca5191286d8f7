import itertools
import random
import re
import signal
from contextlib import contextmanager

import pytest

from dodgson import DodgsonTriple, Election, PreferenceOrder, VoterProfile


def order(text: str) -> PreferenceOrder:
    return PreferenceOrder(tuple(text.split("<")))


def election(candidates: str, *orders: str, mults=None) -> Election:
    names = tuple(candidates.split())
    groups = tuple(
        (order(text), 1 if mults is None else mults[i]) for i, text in enumerate(orders)
    )
    return Election(names, VoterProfile(groups))


def impartial_culture(m: int, n: int, seed: str, landslide: float) -> Election:
    """Seeded impartial-culture profile over the first ``m`` of a..f, grouped
    by order; a ``landslide`` share of the voters copies one seeded order."""
    names = tuple("abcdef"[:m])
    perms = list(itertools.permutations(names))
    rng = random.Random(seed)
    counts = [0] * len(perms)
    copies = int(n * landslide)
    counts[rng.randrange(len(perms))] += copies
    for _ in range(n - copies):
        counts[rng.randrange(len(perms))] += 1
    groups = tuple((PreferenceOrder(p), c) for p, c in zip(perms, counts) if c)
    return Election(names, VoterProfile(groups))


def assert_outcome(build, expected) -> None:
    """``build()`` raises an exception of ``expected``'s type and message, or,
    when ``expected`` is no exception, returns it."""
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            build()
    else:
        assert build() == expected


class TimeLimitExceeded(BaseException):
    """Raised by :func:`time_limit`; a BaseException, so that no handler in
    the code under test can turn it into an ordinary error exit."""


@contextmanager
def time_limit(seconds: float):
    """Fail the enclosed block once ``seconds`` pass."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeLimitExceeded as exc:
        # drop the interrupted frames: CPython 3.11 can leave one without a
        # line number, and pytest then aborts the session formatting it
        raise TimeLimitExceeded(str(exc)) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def chain_triple(*names: str) -> DodgsonTriple:
    """Single voter ranking the given names ascending; first name designated."""
    e = Election(tuple(names), VoterProfile(((PreferenceOrder(tuple(names)), 1),)))
    return DodgsonTriple(e, names[0])


@pytest.fixture
def cycle():
    """One voter each of a<b<c, b<c<a, c<a<b: no Condorcet winner."""
    return election("a b c", "a<b<c", "b<c<a", "c<a<b")


@pytest.fixture
def unanimous():
    """Three identical voters a<b<c: c is the Condorcet winner."""
    return election("a b c", "a<b<c", mults=[3])
