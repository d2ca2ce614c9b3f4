"""The shared zeroizing LRU behind the round-key and GHASH caches.

Capacity, LRU order and wipe-on-drop are covered through
``RoundKeyCache`` in ``test_backends``; these tests cover leases.
"""

import threading

import pytest

from repro.perf.keycache import ZeroizingLRU


def _build(key):
    return bytearray([key + 1] * 8)


def _wipe(value):
    value[:] = bytes(len(value))


def _lru(capacity=4, build=_build):
    return ZeroizingLRU(capacity, build, _wipe)


class TestLeases:
    @pytest.mark.parametrize("how", ["evict", "discard", "clear"])
    def test_drop_under_a_lease_waits_for_release(self, how):
        cache = _lru(capacity=1)
        with cache.lease(1) as value:
            if how == "evict":
                with cache.lease(2):
                    pass
            elif how == "discard":
                cache.discard(1)
            else:
                cache.clear()
            assert 1 not in cache
            assert value == _build(1), "wiped under a live lease"
        assert not any(value)

    def test_last_of_nested_leases_wipes(self):
        cache = _lru()
        with cache.lease(1) as outer:
            with cache.lease(1) as inner:
                assert inner is outer
                cache.discard(1)
            assert any(outer)
        assert not any(outer)

    def test_lease_after_drop_gets_a_fresh_entry(self):
        cache = _lru()
        with cache.lease(1) as old:
            cache.discard(1)
            with cache.lease(1) as new:
                assert new is not old
            assert any(old) and any(new)
        assert not any(old)
        assert any(new) and 1 in cache

    def test_release_on_exception(self):
        cache = _lru()
        with pytest.raises(RuntimeError):
            with cache.lease(1) as value:
                cache.discard(1)
                raise RuntimeError("reader failed")
        assert not any(value)

    def test_losing_racer_copy_is_wiped(self):
        """Two threads miss on one key and both build; the loser's
        copy is wiped, and both readers use the winner's."""
        built = []
        entered = threading.Barrier(2)

        def build(key):
            value = _build(key)
            built.append(value)
            entered.wait(timeout=5)
            return value

        cache = _lru(build=build)
        used = []

        def reader():
            with cache.lease(7) as value:
                used.append(value)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(built) == 2
        assert used[0] is used[1]
        loser = built[0] if built[1] is used[0] else built[1]
        assert not any(loser)
        assert any(used[0]) and len(cache) == 1

