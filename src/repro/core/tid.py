"""Transaction identifiers with Moss-model nesting.

A TID names a transaction within a *family*: the tree rooted at one
top-level transaction.  The family identifier embeds the originating
site and a counter ("T7@site0"); nested transactions extend the parent's
path with a per-parent child counter, so "T7@site0:2.1" is the first
child of the second child of the top-level transaction.

Every Camelot operation explicitly lists its TID; the transaction
manager's primary data structure is a hash table of family descriptors,
each holding its transactions (paper §3.4) — hence families are the unit
of concurrency and locking there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True, order=True)
class TID:
    """Immutable transaction identifier: family plus nesting path."""

    family: str
    path: Tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.path:
            return self.family
        return f"{self.family}:{'.'.join(str(p) for p in self.path)}"

    # ------------------------------------------------------- structure

    @property
    def is_top_level(self) -> bool:
        return not self.path

    @property
    def parent(self) -> Optional["TID"]:
        if not self.path:
            return None
        return TID(self.family, self.path[:-1])

    @property
    def top_level(self) -> "TID":
        return TID(self.family, ())

    def child(self, index: int) -> "TID":
        if index < 1:
            raise ValueError("child indices start at 1")
        return TID(self.family, self.path + (index,))

    def is_ancestor_of(self, other: "TID") -> bool:
        """Proper ancestor test (a transaction is not its own ancestor)."""
        return (self.family == other.family
                and len(self.path) < len(other.path)
                and other.path[:len(self.path)] == self.path)

    # ----------------------------------------------------------- parse

    @classmethod
    def parse(cls, text: str) -> "TID":
        """Inverse of ``str()``: ``"T7@site0:2.1"`` round-trips."""
        if ":" not in text:
            return cls(text, ())
        family, _, path_part = text.partition(":")
        try:
            path = tuple(int(p) for p in path_part.split("."))
        except ValueError:
            raise ValueError(f"malformed TID {text!r}") from None
        if any(p < 1 for p in path):
            raise ValueError(f"malformed TID {text!r}: indices start at 1")
        return cls(family, path)


class TidGenerator:
    """Mints family IDs for one site and child TIDs within families.

    Family counters are per-generator (per-site), so two sites never mint
    the same family name; child counters are per-parent.
    """

    def __init__(self, site: str):
        self.site = site
        self._family_counter = itertools.count(1)
        self._child_counters: dict[TID, itertools.count] = {}

    def new_top_level(self) -> TID:
        return TID(f"T{next(self._family_counter)}@{self.site}", ())

    def new_child(self, parent: TID) -> TID:
        counter = self._child_counters.get(parent)
        if counter is None:
            counter = itertools.count(1)
            self._child_counters[parent] = counter
        return parent.child(next(counter))

    def forget_family(self, family: str) -> None:
        """Drop child counters for a finished family (bounded memory)."""
        stale = [tid for tid in self._child_counters if tid.family == family]
        for tid in stale:
            del self._child_counters[tid]
