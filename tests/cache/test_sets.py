"""Tests for the set-associative tag array."""

import random
import tracemalloc

import pytest

from repro.cache.hierarchy import MemorySystem
from repro.cache.params import CacheLevelParams
from repro.cache.sets import TagArray


def small_cache(assoc=2, sets=4, line=32):
    return TagArray(
        CacheLevelParams("T", size_bytes=assoc * sets * line,
                         associativity=assoc, line_size=line)
    )


class TestProbeAndFill:
    def test_cold_miss_then_hit(self):
        tags = small_cache()
        assert tags.probe(0x1000) is False
        tags.fill(0x1000)
        assert tags.probe(0x1000) is True

    def test_line_granularity(self):
        tags = small_cache(line=32)
        tags.fill(0x1000)
        assert tags.probe(0x101F) is True   # same 32B line
        assert tags.probe(0x1020) is False  # next line

    def test_line_address(self):
        tags = small_cache(line=32)
        assert tags.line_address(0x1234) == 0x1220

    def test_stats_count(self):
        tags = small_cache()
        tags.probe(0)
        tags.fill(0)
        tags.probe(0)
        assert tags.hits == 1
        assert tags.misses == 1
        assert tags.accesses == 2


class TestLru:
    def test_lru_eviction_order(self):
        tags = small_cache(assoc=2, sets=1, line=32)
        tags.fill(0x0)     # way A
        tags.fill(0x20)    # way B
        tags.probe(0x0)    # A now MRU
        evicted = tags.fill(0x40)
        assert evicted == (0x20, False)  # B was LRU
        assert tags.probe(0x0) is True
        assert tags.probe(0x20) is False

    def test_refill_refreshes_lru(self):
        tags = small_cache(assoc=2, sets=1, line=32)
        tags.fill(0x0)
        tags.fill(0x20)
        tags.fill(0x0)  # refresh, no eviction
        evicted = tags.fill(0x40)
        assert evicted[0] == 0x20

    def test_sets_are_independent(self):
        tags = small_cache(assoc=2, sets=4, line=32)
        # Lines mapping to set 0: stride = sets * line = 128.
        tags.fill(0x000)
        tags.fill(0x080)
        tags.fill(0x100)  # evicts 0x000 from set 0
        assert tags.probe(0x020) is False  # set 1 untouched (miss counts)
        assert tags.contains(0x080)
        assert not tags.contains(0x000)


class TestDirty:
    def test_dirty_eviction_reported(self):
        tags = small_cache(assoc=1, sets=1, line=32)
        tags.fill(0x0, dirty=True)
        evicted = tags.fill(0x20)
        assert evicted == (0x0, True)

    def test_set_dirty(self):
        tags = small_cache(assoc=1, sets=1, line=32)
        tags.fill(0x0)
        tags.set_dirty(0x4)
        evicted = tags.fill(0x20)
        assert evicted == (0x0, True)

    def test_refill_keeps_dirty(self):
        tags = small_cache(assoc=1, sets=1, line=32)
        tags.fill(0x0, dirty=True)
        tags.fill(0x0, dirty=False)
        evicted = tags.fill(0x20)
        assert evicted == (0x0, True)


class TestInvalidate:
    def test_invalidate_present(self):
        tags = small_cache()
        tags.fill(0x1000)
        assert tags.invalidate(0x1000) is True
        assert tags.contains(0x1000) is False

    def test_invalidate_absent(self):
        assert small_cache().invalidate(0x1000) is False

    def test_invalidated_way_is_the_next_victim(self):
        tags = small_cache(assoc=4, sets=1, line=32)
        for line in range(4):
            tags.fill(line * 32)
        tags.probe(0x0)  # line 0 MRU, line 1 LRU
        assert tags.invalidate(0x40)  # line 2
        assert tags.fill(0x80) is None  # reuses the invalidated way
        assert all(tags.contains(line * 32) for line in (0, 1, 3, 4))
        assert tags.fill(0xA0) == (0x20, False)  # then true LRU again


class EagerTags:
    """Reference model: every set built up front, ways as
    ``[tag, dirty, lru]`` lists, victim = first way with the smallest
    LRU stamp."""

    def __init__(self, assoc, sets, line):
        self.line = line
        self.sets = [[[None, False, 0] for _ in range(assoc)]
                     for _ in range(sets)]
        self.clock = self.hits = self.misses = self.evictions = 0

    def _find(self, address):
        tag = address // self.line
        ways = self.sets[tag % len(self.sets)]
        return ways, tag, next((w for w in ways if w[0] == tag), None)

    def probe(self, address, update_lru):
        way = self._find(address)[2]
        if way is None:
            self.misses += 1
        else:
            if update_lru:
                self.clock += 1
                way[2] = self.clock
            self.hits += 1
        return way

    def touch(self, way):
        self.clock += 1
        way[2] = self.clock
        self.hits += 1

    def contains(self, address):
        return self._find(address)[2] is not None

    def fill(self, address, dirty):
        ways, tag, way = self._find(address)
        self.clock += 1
        if way is not None:
            way[1] = way[1] or dirty
            way[2] = self.clock
            return None
        victim = ways[0]
        for way in ways[1:]:
            if way[2] < victim[2]:
                victim = way
        evicted = None
        if victim[0] is not None:
            evicted = (victim[0] * self.line, victim[1])
            self.evictions += 1
        victim[:] = [tag, dirty, self.clock]
        return evicted

    def set_dirty(self, address):
        way = self._find(address)[2]
        if way is not None:
            way[1] = True

    def invalidate(self, address):
        way = self._find(address)[2]
        if way is None:
            return False
        way[:] = [None, False, 0]
        return True


OPS = ("probe", "probe_line", "touch", "fill", "set_dirty", "invalidate",
       "contains")


@pytest.mark.parametrize("assoc", [1, 2, 3, 4])
@pytest.mark.parametrize("sets", [1, 2, 4, 8])
def test_matches_eager_reference(assoc, sets):
    """Seeded random operation streams agree with the eager model on
    every return value, every counter and every eviction victim."""
    line = 32
    rng = random.Random(assoc * 100 + sets)
    tags = small_cache(assoc=assoc, sets=sets, line=line)
    ref = EagerTags(assoc, sets, line)
    universe = 3 * assoc * sets  # enough lines to force conflicts
    handles = []  # (TagArray way, reference way) from probe_line hits
    for _ in range(3000):
        op = rng.choice(OPS)
        address = rng.randrange(universe) * line + rng.randrange(line)
        if op == "probe":
            update = rng.random() < 0.8
            assert tags.probe(address, update) == (
                ref.probe(address, update) is not None)
        elif op == "probe_line":
            update = rng.random() < 0.8
            line_addr = tags.line_address(address)
            got = tags.probe_line(line_addr, update)
            want = ref.probe(line_addr, update)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tag == want[0]
                handles.append((got, want))
        elif op == "touch":
            if handles:
                # Stale handles included: a built set is never replaced,
                # so a handle keeps naming the same way.
                got, want = rng.choice(handles)
                tags.touch(got)
                ref.touch(want)
        elif op == "fill":
            dirty = rng.random() < 0.5
            assert tags.fill(address, dirty=dirty) == ref.fill(address,
                                                               dirty)
        elif op == "set_dirty":
            tags.set_dirty(address)
            ref.set_dirty(address)
        elif op == "invalidate":
            assert tags.invalidate(address) == ref.invalidate(address)
        else:
            assert tags.contains(address) == ref.contains(address)
        assert (tags.hits, tags.misses, tags.evictions) == (
            ref.hits, ref.misses, ref.evictions)
    for index in range(universe):
        assert tags.contains(index * line) == ref.contains(index * line)
    # Drain every set through fills: victims and dirty bits still agree.
    for index in range(universe):
        assert tags.fill(index * line) == ref.fill(index * line, False)


class TestFirstTouchCost:
    def test_default_memory_system_is_cheap_to_build(self):
        tracemalloc.start()
        try:
            MemorySystem()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024, peak

    def test_queries_on_untouched_sets_allocate_no_sets(self):
        l2 = MemorySystem().l2
        stride = l2.params.line_size
        tracemalloc.start()
        try:
            for index in range(4096):
                address = index * stride
                assert not l2.contains(address)
                assert not l2.probe(address)
                assert l2.probe_line(address) is None
                l2.set_dirty(address)
                assert not l2.invalidate(address)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
        assert l2.misses == 2 * 4096


class TestParamValidation:
    @pytest.mark.parametrize("knob", ["size_bytes", "associativity",
                                      "line_size", "mshrs"])
    @pytest.mark.parametrize("value", [0, -32])
    def test_non_positive_rejected(self, knob, value):
        fields = dict(size_bytes=1024, associativity=2, line_size=32,
                      mshrs=8)
        fields[knob] = value
        with pytest.raises(ValueError, match=f"^L9: {knob} must be"):
            CacheLevelParams("L9", **fields)

    def test_set_count_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="^L9: set count"):
            CacheLevelParams("L9", size_bytes=3 * 2 * 32, associativity=2,
                             line_size=32)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            CacheLevelParams("X", size_bytes=100, associativity=2,
                             line_size=32)

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            CacheLevelParams("X", size_bytes=960, associativity=2,
                             line_size=30)

    def test_num_sets(self):
        params = CacheLevelParams("X", size_bytes=16 * 1024,
                                  associativity=2, line_size=32)
        assert params.num_sets == 256
