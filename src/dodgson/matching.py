"""Three-dimensional matching instances and a brute-force decision oracle.

An instance is three disjoint, equally sized token sets W, X, Y plus a set of
triples drawn from their product.  The question: can the W side be covered by
triples that pairwise disagree in every coordinate?  Desk scale only: the
matcher tries every q-subset of the triples, C(m, q) of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .elections import ParseError, _lines, check_name

__all__ = [
    "MatchingInstance",
    "CANONICAL_YES",
    "CANONICAL_NO",
    "has_matching",
    "enumerate_instances",
    "parse_matching",
    "serialize_matching",
]

Triple = tuple[str, str, str]


@dataclass(frozen=True)
class MatchingInstance:
    """Sets W, X, Y (disjoint, equal size >= 1) and triples within W x X x Y.

    Token tuples are normalized to sorted order and the triple set is
    deduplicated, so structurally equal instances compare equal.
    """

    w_items: tuple[str, ...]
    x_items: tuple[str, ...]
    y_items: tuple[str, ...]
    triples: tuple[Triple, ...]

    def __post_init__(self):
        object.__setattr__(self, "w_items", tuple(sorted(self.w_items)))
        object.__setattr__(self, "x_items", tuple(sorted(self.x_items)))
        object.__setattr__(self, "y_items", tuple(sorted(self.y_items)))
        object.__setattr__(self, "triples", tuple(sorted(set(map(tuple, self.triples)))))
        families = (self.w_items, self.x_items, self.y_items)
        for items in families:
            if not items:
                raise ValueError("W, X and Y must be non-empty")
            for token in items:
                check_name(token)
            if len(set(items)) != len(items):
                raise ValueError(f"duplicate token within {items}")
        if not (len(self.w_items) == len(self.x_items) == len(self.y_items)):
            raise ValueError("W, X and Y must have the same number of elements")
        combined = set(self.w_items) | set(self.x_items) | set(self.y_items)
        if len(combined) != 3 * len(self.w_items):
            raise ValueError("W, X and Y must be disjoint")
        for w, x, y in self.triples:
            if w not in self.w_items or x not in self.x_items or y not in self.y_items:
                raise ValueError(f"triple ({w}, {x}, {y}) is not in W x X x Y")

    @property
    def q(self) -> int:
        return len(self.w_items)

    def tokens(self) -> tuple[str, ...]:
        return self.w_items + self.x_items + self.y_items


CANONICAL_NO = MatchingInstance(
    ("d", "d2"), ("e", "e2"), ("p", "p2"), (("d", "e", "p"), ("d", "e", "p2"))
)
CANONICAL_YES = MatchingInstance(
    ("d", "d2"), ("e", "e2"), ("p", "p2"), (("d", "e", "p"), ("d2", "e2", "p2"))
)


def has_matching(instance: MatchingInstance) -> bool:
    """Does some q-subset of the triples cover W, X, Y without coordinate reuse?

    q triples whose coordinates are pairwise distinct cover each size-q set.
    Tries every q-subset: desk scale.
    """
    return any(
        all(len({t[i] for t in chosen}) == instance.q for i in range(3))
        for chosen in itertools.combinations(instance.triples, instance.q)
    )


def _canonical_universe(q: int) -> tuple[tuple[tuple[str, ...], ...], list[Triple]]:
    """Token sets w1..wq / x1..xq / y1..yq and all their triples, sorted."""
    tokens = tuple(tuple(f"{p}{i}" for i in range(1, q + 1)) for p in "wxy")
    return tokens, sorted(itertools.product(*tokens))


def enumerate_instances(q: int, m_range: tuple[int, int]) -> Iterator[MatchingInstance]:
    """All instances over canonical token sets w1..wq / x1..xq / y1..yq whose
    triple count lies in the inclusive ``m_range``.  Desk scale: q <= 3."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if q > 3:
        raise ValueError(f"enumeration is desk scale only (q <= 3), got q={q}")
    tokens, universe = _canonical_universe(q)
    low, high = m_range
    for m in range(max(low, 0), min(high, len(universe)) + 1):
        for combo in itertools.combinations(universe, m):
            yield MatchingInstance(*tokens, combo)


def parse_matching(text: str) -> MatchingInstance:
    """Parse the .3dm format: ``W:``/``X:``/``Y:`` token lines, then one
    ``<w> <x> <y>`` line per triple; ``#`` starts a comment."""
    families: dict[str, tuple[str, ...]] = {}
    expected = iter(("W", "X", "Y"))
    triples: list[Triple] = []
    for lineno, line in _lines(text):
        if len(families) < 3:
            label = next(expected)
            key, sep, rest = line.partition(":")
            if key.strip() != label or not sep:
                raise ParseError(f"expected '{label}: <tokens>'", lineno)
            tokens = tuple(rest.split())
            if not tokens:
                raise ParseError(f"empty token list for {label}", lineno)
            families[label] = tokens
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected '<w> <x> <y>' triple", lineno)
        triples.append((parts[0], parts[1], parts[2]))
    if len(families) < 3:
        raise ParseError("missing W:/X:/Y: token lines")
    try:
        return MatchingInstance(families["W"], families["X"], families["Y"], tuple(triples))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_matching(instance: MatchingInstance) -> str:
    lines = [
        "W: " + " ".join(instance.w_items),
        "X: " + " ".join(instance.x_items),
        "Y: " + " ".join(instance.y_items),
    ]
    lines.extend(" ".join(triple) for triple in instance.triples)
    return "\n".join(lines) + "\n"
