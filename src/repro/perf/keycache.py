"""One zeroizing LRU for every per-key cache.

The round-key schedules of :class:`repro.perf.backends.RoundKeyCache`
and the GHASH byte tables of :mod:`repro.aes.ghash` are both material
derived from a key, cached so a hot key pays its setup once, and
shared by every thread the serve layer runs crypto on.  Both follow
the policy this class owns:

- **Bounded.**  At most ``capacity`` entries; inserting one more
  evicts the least recently used.
- **Locked.**  Lookups, inserts, evictions and drops run under one
  lock, so a concurrent ``discard`` can never interleave with a hit.
- **Zeroizing.**  A dropped entry (evicted, discarded or cleared) is
  overwritten by ``wipe`` instead of being left for the allocator.
- **Never under a reader.**  :meth:`lease` counts the callers using
  an entry.  An entry dropped while leased leaves the cache at once,
  so no new reader finds it, but its wipe waits for the last lease to
  end: a digest that started on a key's tables finishes on them even
  when another session forgets that key mid-way.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, List, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class ZeroizingLRU(Generic[K, V]):
    """LRU of values built by ``build(key)``, wiped by ``wipe(value)``
    when dropped and no longer leased."""

    def __init__(self, capacity: int, build: Callable[[K], V],
                 wipe: Callable[[V], None]) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        self._build = build
        self._wipe = wipe
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        #: Live leases per value, keyed by ``id``: a value is either
        #: in ``_entries`` or in ``_retired``, so its id stays unique.
        self._leases: Dict[int, int] = {}
        #: Values dropped while leased, wiped by their last release.
        self._retired: Dict[int, V] = {}
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        """Maximum number of cached entries."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    def lease(self, key: K) -> "_Lease[K, V]":
        """``with cache.lease(key) as value:`` — ``key``'s value,
        built on a miss, and not wiped before the block ends."""
        return _Lease(self, key)

    def discard(self, key: K) -> None:
        """Drop ``key``'s entry, if cached, and wipe it once unused."""
        with self._lock:
            value = self._entries.pop(key, None)
            doomed = [] if value is None else self._retire(value)
        self._wipe_all(doomed)

    def clear(self) -> None:
        """Drop every entry, wiping each once unused."""
        with self._lock:
            doomed = [v for value in self._entries.values()
                      for v in self._retire(value)]
            self._entries.clear()
        self._wipe_all(doomed)

    # ------------------------------------------------------- internals
    def _acquire(self, key: K) -> V:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self._lease(value)
                return value
        # Build outside the lock: construction is the expensive part.
        built = self._build(key)
        doomed: List[V] = []
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                value = self._entries[key] = built
                while len(self._entries) > self._capacity:
                    _, evicted = self._entries.popitem(last=False)
                    doomed.extend(self._retire(evicted))
            else:
                # A racing builder got there first; keep its copy.
                self._entries.move_to_end(key)
                doomed.append(built)
            self._lease(value)
        self._wipe_all(doomed)
        return value

    def _lease(self, value: V) -> None:
        ident = id(value)
        self._leases[ident] = self._leases.get(ident, 0) + 1

    def _release(self, value: V) -> None:
        ident = id(value)
        with self._lock:
            left = self._leases[ident] - 1
            if left:
                self._leases[ident] = left
                return
            del self._leases[ident]
            doomed = self._retired.pop(ident, None)
        if doomed is not None:
            self._wipe(doomed)

    def _retire(self, value: V) -> List[V]:
        """Called under the lock for a value just dropped from
        ``_entries``: what the caller must wipe now (nothing while a
        lease is live; the last release wipes it then)."""
        if id(value) in self._leases:
            self._retired[id(value)] = value
            return []
        return [value]

    def _wipe_all(self, values: List[V]) -> None:
        for value in values:
            self._wipe(value)


class _Lease(Generic[K, V]):
    """The context manager :meth:`ZeroizingLRU.lease` returns (a
    class, not a generator: it runs on every cipher and GHASH call)."""

    __slots__ = ("_cache", "_key", "_value")

    def __init__(self, cache: ZeroizingLRU[K, V], key: K) -> None:
        self._cache = cache
        self._key = key

    def __enter__(self) -> V:
        self._value = self._cache._acquire(self._key)
        return self._value

    def __exit__(self, *exc_info: object) -> None:
        self._cache._release(self._value)


__all__ = ["ZeroizingLRU"]
