"""Bounded mapping with ordered LRU eviction.

Shared by the compiled-replay caches (:mod:`repro.cache.model`,
:mod:`repro.cache.stackdist`) and the memory side of every keyed JSON
cache tier (:mod:`repro.store.tier`).  Lookups refresh the entry and inserts
evict only the least-recently-used entry once ``capacity`` is exceeded
— replacing the earlier wholesale ``clear()`` backstop, which threw
away every compiled replay function the moment the cache filled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional


class BoundedCache:
    """An ordered dict that keeps at most ``capacity`` entries.

    ``capacity=None`` keeps every entry; ``capacity=0`` keeps none.
    """

    def __init__(self, capacity: Optional[int]):
        self.capacity = None if capacity is None else max(0, capacity)
        self.evictions = 0
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Optional[Any]:
        entries = self._entries
        if key not in entries:
            return default
        entries.move_to_end(key)
        return entries[key]

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while self.capacity is not None \
                and len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
