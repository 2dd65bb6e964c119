"""Cycle-exactness of the pipeline scans across processor geometries.

Every simulator (FastSim, SlowSim and the integrated baseline) is run
at ``tiny`` scale on a few integer and floating-point workloads under
a matrix of :class:`ProcessorParams` that starve one resource each —
decode/retire width, functional units, issue-queue slots, rename
registers and speculative branches — so the issue, dispatch, retire
and fetch scans take their stall paths on nearly every cycle.

The canonical digest of each run (:func:`canonical_digest`, keyed
``geometry/program/engine``) is pinned in
``data/geometry_digests.json``, recorded before the per-cycle scans
were rewritten over precomputed per-instruction timing records: the
rewrite must not move a single simulated statistic. FastSim must also
stay cycle-exact with SlowSim under every geometry.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

import repro.api as api
from repro.emulator.functional import run_program
from repro.isa import assemble
from repro.sim.slowsim import SlowSim
from repro.uarch.interactions import CycleBoundary
from repro.uarch.iq import Stage
from repro.uarch.params import ProcessorParams

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data",
                            "geometry_digests.json")

#: ProcessorParams overrides: the default machine, then one starved
#: resource per geometry.
GEOMETRIES = {
    "r10k": {},
    "width1": {"decode_width": 1, "retire_width": 1},
    "units1": {"int_alus": 1, "fp_units": 1, "agen_units": 1},
    "queues2": {"int_queue": 2, "fp_queue": 2, "addr_queue": 2},
    "renames1": {"phys_int_regs": 33, "phys_fp_regs": 33},
    "spec1": {"max_spec_branches": 1},
}

#: gcc: many indirect jumps; vortex: multiply + jumps; hydro2d: FP
#: divide; apsi: FP compare and fcc branches.
WORKLOADS = ("gcc", "vortex", "hydro2d", "apsi")

#: Back-to-back long-latency ops on the shared mul/div and FP
#: divide/sqrt slots (the suite never uses sdiv or fsqrt), fcc and icc
#: branches, sub-word memory and an indirect return.
UNITS_PROGRAM = """
main:
    set v, %l0
    mov 6, %l5
    clr %l7
loop:
    lddf [%l0], %f0
    lddf [%l0+8], %f1
    fdiv %f0, %f1, %f2
    fsqrt %f0, %f3
    fdiv %f3, %f1, %f4
    fsqrt %f2, %f5
    fadd %f4, %f5, %f6
    fcmp %f6, %f1
    fbl skip
    fmul %f6, %f1, %f6
skip:
    fdtoi %f6, %l1
    sdiv %l1, 3, %l2
    smul %l2, %l5, %l3
    sdiv %l3, 7, %l4
    call bump
    stb %l4, [%l0 + 16]
    ldub [%l0 + 16], %l6
    add %l7, %l6, %l7
    subcc %l5, 1, %l5
    bne loop
    out %l7
    halt
bump:
    add %l4, 1, %l4
    ret
    .data
v: .double 81.0, 2.0
   .word 0, 0
"""

PROGRAMS = WORKLOADS + ("units",)
ENGINES = ("fast", "slow", "baseline")


def _params(geometry):
    return ProcessorParams(**GEOMETRIES[geometry])


def _program(name):
    return assemble(UNITS_PROGRAM, name="units") if name == "units" else name


def canonical_digest(result):
    """SHA-256 of the result record without host-time fields."""
    data = result.as_dict()
    data.pop("host_seconds", None)
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


def run_matrix_cell(geometry, program):
    """``{engine: SimulationResult}`` for one geometry and program."""
    params = _params(geometry)
    return {engine: api.simulate(_program(program), engine=engine,
                                 scale="tiny", params=params)
            for engine in ENGINES}


with open(DIGESTS_PATH) as _handle:
    PINNED = json.load(_handle)


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_digests_match_pinned(geometry, program):
    results = run_matrix_cell(geometry, program)
    for engine, result in results.items():
        key = f"{geometry}/{program}/{engine}"
        assert canonical_digest(result) == PINNED[key], key
    assert results["fast"].timing_equal(results["slow"])


def test_pinned_table_covers_the_matrix():
    expected = {f"{g}/{p}/{e}" for g in GEOMETRIES for p in PROGRAMS
                for e in ENGINES}
    assert set(PINNED) == expected


def _checked_run(simulator, run):
    """Forward *run*'s requests, checking the iQ at every cycle end."""
    outcome = None
    generator = run()
    while True:
        try:
            request = generator.send(outcome)
        except StopIteration:
            return
        if type(request) is CycleBoundary:
            stages = [entry.stage for entry in simulator.iq.entries]
            fetched = [stage is Stage.FETCHED for stage in stages]
            # FETCHED entries form a suffix: no older entry is FETCHED
            # once a younger one has left FETCHED.
            assert fetched == sorted(fetched), stages
        outcome = yield request


@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_fetched_entries_form_an_iq_suffix(geometry):
    """The single-pass dispatch scan relies on this invariant."""
    exe = assemble(UNITS_PROGRAM, name="units")
    slow = SlowSim(exe, _params(geometry))
    simulator = slow.simulator
    original = simulator.run
    simulator.run = lambda: _checked_run(simulator, original)
    result = slow.run()
    assert result.output == run_program(exe).output
