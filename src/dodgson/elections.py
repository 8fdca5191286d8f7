"""Core election model: preference orders, voter multisets, triples, 2ER pairs,
Condorcet tests, and raises by adjacent switches.

A preference order is stored ascending: index 0 holds the least preferred
candidate and the last entry the favourite, so ``a<b<c`` means c is liked
best.  One "switch" exchanges two adjacent entries in a single voter's order
and is the unit of cost everywhere in this package.

All values are immutable; every operation returns new values and may be
shared freely across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

__all__ = [
    "ParseError",
    "PreferenceOrder",
    "VoterProfile",
    "Election",
    "DodgsonTriple",
    "TwoERInstance",
    "condorcet_winner",
    "deficit_vector",
    "parse_election",
    "serialize_election",
]

_FORBIDDEN_CHARS = frozenset("<#:")


class ParseError(ValueError):
    """Malformed textual input; the message names the offending 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)


def check_name(name: str) -> str:
    """Validate a candidate (or 3DM token) name and return it unchanged."""
    if not name:
        raise ValueError("candidate name must be non-empty")
    if any(ch in _FORBIDDEN_CHARS or ch.isspace() for ch in name):
        raise ValueError(
            f"invalid candidate name {name!r}: whitespace, '<', '#' and ':' are not allowed"
        )
    return name


def majority_threshold(n: int) -> int:
    """Smallest vote count that is strictly more than half of ``n`` voters."""
    return n // 2 + 1


@dataclass(frozen=True)
class PreferenceOrder:
    """Strict, complete preference order, ascending (last entry = favourite)."""

    ranking: tuple[str, ...]

    def __post_init__(self):
        if not self.ranking:
            raise ValueError("empty preference order")
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError(f"duplicate candidate in order {'<'.join(self.ranking)!r}")

    def __str__(self) -> str:
        return "<".join(self.ranking)

    def position(self, name: str) -> int:
        return self.ranking.index(name)

    def raised(self, name: str, steps: int) -> "PreferenceOrder":
        """Move ``name`` upward by ``steps`` adjacent exchanges."""
        pos = self.position(name)
        if steps < 0 or pos + steps > len(self.ranking) - 1:
            raise ValueError(
                f"cannot raise {name!r} by {steps}: only "
                f"{len(self.ranking) - 1 - pos} positions above it"
            )
        if steps == 0:
            return self
        entries = list(self.ranking)
        del entries[pos]
        entries.insert(pos + steps, name)
        return PreferenceOrder(tuple(entries))


@dataclass(frozen=True)
class VoterProfile:
    """Multiset of preference orders, stored as (order, multiplicity) groups.

    Groups keep gadget outputs compact (they contain many duplicate voters)
    while individual voters stay addressable through flat indices: group 0
    contributes flat voters ``0 .. multiplicity-1``, and so on.
    """

    groups: tuple[tuple[PreferenceOrder, int], ...]

    def __post_init__(self):
        for _, mult in self.groups:
            if mult <= 0:
                raise ValueError(f"voter multiplicity must be positive, got {mult}")
        if not self.groups:
            raise ValueError("a profile needs at least one voter")

    @classmethod
    def from_orders(cls, orders) -> "VoterProfile":
        """Build a profile from a flat voter sequence, grouping consecutive runs."""
        groups = tuple((order, sum(1 for _ in run)) for order, run in itertools.groupby(orders))
        return cls(groups)

    @cached_property
    def n(self) -> int:
        return sum(mult for _, mult in self.groups)

    def orders(self) -> Iterator[PreferenceOrder]:
        """Yield one order per voter, in flat order."""
        for order, mult in self.groups:
            for _ in range(mult):
                yield order


@dataclass(frozen=True)
class Election:
    """Candidate set plus a voter profile whose orders rank exactly that set."""

    candidates: tuple[str, ...]
    profile: VoterProfile

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("an election needs at least one candidate")
        seen = set()
        for name in self.candidates:
            check_name(name)
            if name in seen:
                raise ValueError(f"duplicate candidate {name!r}")
            seen.add(name)
        for order, _ in self.profile.groups:
            if len(order.ranking) != len(self.candidates) or set(order.ranking) != seen:
                raise ValueError(
                    f"order {order} is not a permutation of the candidate set"
                )

    @property
    def n(self) -> int:
        return self.profile.n


@dataclass(frozen=True)
class DodgsonTriple:
    """An election together with the candidate whose score is in question."""

    election: Election
    designated: str

    def __post_init__(self):
        if self.designated not in self.election.candidates:
            raise ValueError(f"designated candidate {self.designated!r} is not in the election")

    @property
    def n(self) -> int:
        return self.election.n


def _require_odd(triple: DodgsonTriple, what: str) -> None:
    if triple.election.n % 2 == 0:
        raise ValueError(f"{what} must have an odd number of voters, got {triple.election.n}")


@dataclass(frozen=True)
class TwoERInstance:
    """A pair of odd-voter triples with distinct designated candidates; the
    question is whether the left score is at most the right score."""

    left: DodgsonTriple
    right: DodgsonTriple

    def __post_init__(self):
        _require_odd(self.left, "left election")
        _require_odd(self.right, "right election")
        if self.left.designated == self.right.designated:
            raise ValueError("designated candidates must differ")


def condorcet_winner(election: Election) -> str | None:
    """The unique candidate beating every other by strict majority, if any.

    A single-candidate election has its candidate win vacuously; exact ties
    never count as a defeat.
    """
    ranks = [({name: i for i, name in enumerate(order.ranking)}, mult)
             for order, mult in election.profile.groups]
    need = majority_threshold(election.n)

    def beats(a: str, b: str) -> bool:
        return sum(mult for rank, mult in ranks if rank[a] > rank[b]) >= need

    # A Condorcet winner beats every champion it meets and then holds the
    # title, so only the survivor of this knockout needs the full check.
    champion = election.candidates[0]
    for rival in election.candidates[1:]:
        if not beats(champion, rival):
            champion = rival
    return champion if all(beats(champion, d) for d in election.candidates if d != champion) else None


def deficit_vector(triple: DodgsonTriple) -> dict[str, int]:
    """Per-opponent vote deficits; all zero exactly when the designated
    candidate is a Condorcet winner."""
    election = triple.election
    # above[d]: voters ranking d above the designated candidate, who may
    # lose ``spare`` of those votes and still defeat d
    above = dict.fromkeys(election.candidates, 0)
    for order, mult in election.profile.groups:
        for name in order.ranking[order.position(triple.designated) + 1:]:
            above[name] += mult
    spare = election.n - majority_threshold(election.n)
    return {d: max(0, above[d] - spare) for d in election.candidates if d != triple.designated}


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, content) of each line that is not blank once
    its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_election(text: str) -> Election:
    """Parse the .dodg election format.

    Line 1: ``candidates: <name> <name> ...``.  Every further non-blank line
    is ``<multiplicity>: <name><<name><...`` giving one voter group in
    ascending preference, the multiplicity in ASCII digits.  ``#`` starts a
    comment; callers supply the designated candidate, never in the file.
    """
    header: tuple[str, ...] | None = None
    header_set: set[str] = set()
    groups: list[tuple[PreferenceOrder, int]] = []
    for lineno, line in _lines(text):
        if header is None:
            key, sep, rest = line.partition(":")
            if key.strip() != "candidates" or not sep:
                raise ParseError("expected 'candidates: <name> ...' header", lineno)
            names = rest.split()
            if not names:
                raise ParseError("empty candidate list", lineno)
            for name in names:
                try:
                    check_name(name)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
                if name in header_set:
                    raise ParseError(f"duplicate candidate {name!r}", lineno)
                header_set.add(name)
            header = tuple(names)
            continue
        mult_text, sep, order_text = line.partition(":")
        if not sep:
            raise ParseError("expected '<multiplicity>: <order>'", lineno)
        mult_text = mult_text.strip()
        if not (mult_text.isascii() and mult_text.isdigit()):  # int() takes '+', '_', '١'
            raise ParseError(f"bad multiplicity {mult_text!r}", lineno)
        mult = int(mult_text)
        if mult <= 0:
            raise ParseError(f"multiplicity must be positive, got {mult}", lineno)
        tokens = [tok.strip() for tok in order_text.strip().split("<")]
        if len(tokens) != len(header) or set(tokens) != header_set:
            for tok in tokens:
                if tok not in header_set:
                    raise ParseError(f"unknown candidate {tok!r}", lineno)
            raise ParseError("order is not a permutation of the candidate set", lineno)
        groups.append((PreferenceOrder(tuple(tokens)), mult))
    if header is None:
        raise ParseError("missing 'candidates:' header")
    if not groups:
        raise ParseError("election has no voters")
    return Election(header, VoterProfile(tuple(groups)))


def serialize_election(election: Election) -> str:
    lines = ["candidates: " + " ".join(election.candidates)]
    lines.extend(f"{mult}: {order}" for order, mult in election.profile.groups)
    return "\n".join(lines) + "\n"
