"""Finite multisets over named places.

A marking is a multiset of places: a map from place name to a positive
multiplicity. Zero entries are never stored, so the support of a marking
is exactly its key set. Markings are immutable and hashable.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from .errors import ModelError

# Multiplicities are bounded; exceeding the bound is a checked error, not
# silent wraparound or unbounded growth.
MAX_MULTIPLICITY = 2**63 - 1


class Marking(Mapping):
    """Immutable multiset of places; the state notion of the token game."""

    __slots__ = ("_counts", "_key", "_size")

    def __init__(self, counts: Mapping | Iterable | None = None):
        items: dict[str, int] = {}
        if counts is None:
            pass
        elif isinstance(counts, Marking):
            items = dict(counts._counts)
        elif isinstance(counts, Mapping):
            for place, n in counts.items():
                if not isinstance(n, int) or isinstance(n, bool):
                    raise ModelError(f"multiplicity of {place!r} must be an integer")
                if n < 0:
                    raise ModelError(f"negative multiplicity for {place!r}")
                if n:
                    items[place] = items.get(place, 0) + n
        else:
            for place in counts:
                items[place] = items.get(place, 0) + 1
        for place, n in items.items():
            if n > MAX_MULTIPLICITY:
                raise ModelError(f"multiplicity overflow at {place!r}")
        object.__setattr__(self, "_counts", items)
        object.__setattr__(self, "_key", tuple(sorted(items.items())))
        object.__setattr__(self, "_size", sum(items.values()))

    @classmethod
    def _trusted(cls, items: dict) -> "Marking":
        """The marking with these counts, unchecked: every count must already
        be a positive int at most MAX_MULTIPLICITY. Keeps `items`."""
        m = object.__new__(cls)
        object.__setattr__(m, "_counts", items)
        object.__setattr__(m, "_key", tuple(sorted(items.items())))
        object.__setattr__(m, "_size", sum(items.values()))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Marking is immutable")

    def __reduce__(self):
        return Marking._trusted, (dict(self._counts),)

    # Mapping protocol: m[s] is the multiplicity of s (0 when absent).

    def __getitem__(self, place) -> int:
        return self._counts.get(place, 0)

    def get(self, place, default: int = 0) -> int:
        return self._counts.get(place, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, place) -> bool:
        return place in self._counts

    # keys and items are the views of the count dict, not the Mapping
    # mixins, which read every entry back through __getitem__.

    def keys(self):
        return self._counts.keys()

    def items(self):
        return self._counts.items()

    @property
    def size(self) -> int:
        """Total number of tokens (with multiplicity)."""
        return self._size

    def support(self) -> frozenset:
        return frozenset(self._counts)

    def tokens(self) -> tuple:
        """Expanded token list, sorted by place name."""
        out = []
        for place, n in self._key:
            out.extend([place] * n)
        return tuple(out)

    def union(self, other: "Marking") -> "Marking":
        counts = dict(self._counts)
        for place, n in other._counts.items():
            counts[place] = counts.get(place, 0) + n
        return Marking(counts)

    def difference(self, other: "Marking") -> "Marking":
        counts = {}
        for place, n in self._counts.items():
            left = n - other._counts.get(place, 0)
            if left > 0:
                counts[place] = left
        return Marking(counts)

    def covers(self, other: "Marking") -> bool:
        """Pointwise other(s) <= self(s) for all s."""
        return all(self._counts.get(p, 0) >= n for p, n in other._counts.items())

    __add__ = union
    __sub__ = difference

    def __eq__(self, other) -> bool:
        if not isinstance(other, Marking):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def sorted_items(self) -> tuple:
        return self._key

    def __repr__(self) -> str:
        if not self._counts:
            return "Marking(0)"
        body = " + ".join(f"{n}*{p}" if n > 1 else p for p, n in self._key)
        return f"Marking({body})"
