"""Multi-indices of prime exponents.

A multi-index alpha = (alpha_1, ..., alpha_k) is a finite sequence of
non-negative integers, canonicalized so that the last entry is positive
(trailing zeros carry no information).  Entry j is the exponent of the
j-th prime, so alpha addresses the monomial z^alpha on the infinite
polytorus and, through the prime powers, the integer prod_j p_j^alpha_j.

Storage is sparse, as (position, exponent) pairs with exponent > 0, so
indices touching a late coordinate (large prime) stay cheap.  Equality,
hashing and ordering follow the dense tuple semantics.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator


class MultiIndex:
    __slots__ = ("_pairs",)

    def __init__(self, exponents: Iterable[int] = ()):
        # C-level passes: exponent lists are long and mostly zeros
        dense = list(map(int, exponents))
        if dense and min(dense) < 0:
            pos, e = next((pos, e) for pos, e in enumerate(dense) if e < 0)
            raise ValueError(f"exponents must be non-negative, got {e} at position {pos}")
        self._pairs = tuple(compress(enumerate(dense), dense))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "MultiIndex":
        """Build from (position, exponent) pairs; positions strictly increasing, exponents > 0."""
        self = object.__new__(cls)
        self._pairs = tuple(pairs)
        last = -1
        for pos, e in self._pairs:
            if pos <= last or e <= 0:
                raise ValueError(f"pairs must have increasing positions and positive exponents: {self._pairs}")
            last = pos
        return self

    @classmethod
    def _trusted(cls, pairs: tuple[tuple[int, int], ...]) -> "MultiIndex":
        # internal fast path, caller guarantees canonical pairs
        self = object.__new__(cls)
        self._pairs = pairs
        return self

    @classmethod
    def unit(cls, position: int) -> "MultiIndex":
        """The index e_position with a single exponent 1."""
        if position < 0:
            raise ValueError("position must be non-negative")
        return cls._trusted(((position, 1),))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    @property
    def exponents(self) -> tuple[int, ...]:
        """Dense exponent tuple without trailing zeros."""
        if not self._pairs:
            return ()
        dense = [0] * self.width
        for pos, e in self._pairs:
            dense[pos] = e
        return tuple(dense)

    @property
    def width(self) -> int:
        """Number of leading coordinates needed to support the index."""
        return self._pairs[-1][0] + 1 if self._pairs else 0

    @property
    def degree(self) -> int:
        """Total degree |alpha|, the sum of all exponents."""
        return sum(e for _, e in self._pairs)

    def __len__(self) -> int:
        return self.width

    def __getitem__(self, position: int) -> int:
        for pos, e in self._pairs:
            if pos == position:
                return e
        if not 0 <= position:
            raise IndexError(position)
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.exponents)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiIndex):
            return self._pairs == other._pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._pairs)

    def order_key(self) -> tuple[int, ...]:
        """Sort key of the dense lexicographic order, built without the dense tuples.

        The flat tuple (-p0, e0, -p1, e1, ...) of the negated positions and
        the exponents: at the first differing pair, the nonzero entry at the
        earlier position is the larger.  Every pair has two entries, so the
        flat tuples order as the tuples of (-pos, e) pairs would, and a
        sort compares them as plain integer tuples.
        """
        pairs = self._pairs
        if len(pairs) > 4:  # one linear pass; the concatenations below copy the key so far
            return tuple([x for pos, e in pairs for x in (-pos, e)])
        key = ()  # lifted indices have few pairs, and concatenating is fastest for them
        for pos, e in pairs:
            key += (-pos, e)
        return key

    def __lt__(self, other: "MultiIndex") -> bool:
        # dense lexicographic order; sorts pass key=MultiIndex.order_key instead
        return self.order_key() < other.order_key()

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __repr__(self) -> str:
        # the pairs, not the dense tuple: its length is the last prime position, not the support size
        return f"MultiIndex.from_pairs({self._pairs!r})"


EMPTY_INDEX = MultiIndex()
