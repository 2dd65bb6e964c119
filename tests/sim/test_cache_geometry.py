"""Cycle-exactness of the memory hierarchy across cache geometries.

Every simulator (FastSim, SlowSim and the integrated baseline) is run
at ``tiny`` scale on an integer, a store-heavy integer and a
store-heavy floating-point workload under a matrix of
:class:`MemorySystemParams` that push the cache model off its default
16 KB / 1 MB paths: a 1-way L1 of four sets, an L2 smaller than the
working set (dirty L2 evictions back-invalidate L1 lines and clear
L1 load-filter entries), 4-way sets that pick victims among
invalidated ways, one MSHR per level, and a one-entry store buffer.

The canonical digest of each run (keyed ``geometry/program/engine``)
is pinned in ``data/cache_geometry_digests.json``, recorded while the
tag arrays were still built eagerly: building sets on first touch must
not move a single simulated statistic. FastSim must stay cycle-exact
with SlowSim under every geometry, and the L1 load filter must be
invisible in FastSim's results.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.api as api
from repro.cache.params import CacheLevelParams, MemorySystemParams
from repro.uarch.params import ProcessorParams
from tests.sim.test_geometry_matrix import canonical_digest

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data",
                            "cache_geometry_digests.json")


def _l1(size, assoc, **kw):
    return CacheLevelParams("L1", size_bytes=size, associativity=assoc,
                            write_back=False, **kw)


def _l2(size, assoc, **kw):
    return CacheLevelParams("L2", size_bytes=size, associativity=assoc,
                            write_back=True, **kw)


#: MemorySystemParams overrides: the default machine, then one
#: stressed hierarchy feature per geometry.
GEOMETRIES = {
    "r10k": {},
    "l1tiny": {"l1": _l1(128, 1)},
    "l2small": {"l2": _l2(512, 2)},
    "assoc4": {"l1": _l1(512, 4), "l2": _l2(1024, 4)},
    "mshr1": {"l1": _l1(16 * 1024, 2, mshrs=1),
              "l2": _l2(1024 * 1024, 2, mshrs=1)},
    "sb1": {"store_buffer": 1},
}

#: compress: scattered probes, the most L2 misses at tiny scale; li:
#: L1 store misses and store-buffer stalls; tomcatv: FP stencil with
#: many stores and L1 store misses.
PROGRAMS = ("compress", "li", "tomcatv")
ENGINES = ("fast", "slow", "baseline")


def _params(geometry):
    return ProcessorParams(memory=MemorySystemParams(**GEOMETRIES[geometry]))


with open(DIGESTS_PATH) as _handle:
    PINNED = json.load(_handle)


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_digests_match_pinned(geometry, program):
    params = _params(geometry)
    results = {engine: api.simulate(program, engine=engine, scale="tiny",
                                    params=params)
               for engine in ENGINES}
    for engine, result in results.items():
        key = f"{geometry}/{program}/{engine}"
        assert canonical_digest(result) == PINNED[key], key
    assert results["fast"].timing_equal(results["slow"])
    unfiltered = api.simulate(program, engine="fast", scale="tiny",
                              params=params, l1_filter=False)
    assert canonical_digest(unfiltered) == PINNED[f"{geometry}/{program}/fast"]


def test_pinned_table_covers_the_matrix():
    expected = {f"{g}/{p}/{e}" for g in GEOMETRIES for p in PROGRAMS
                for e in ENGINES}
    assert set(PINNED) == expected
