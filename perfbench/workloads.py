"""The benchmark's three workloads, their seeded samples and the
correctness gate every operation passes through.

A workload is a closed loop driven from one process: the next
operation starts when the previous one has returned its canonical
result. Operations go through the public API only
(``repro.api.simulate`` / ``repro.api.run_campaign``), naming suite
programs the way users do.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from typing import Dict, List, Optional, Sequence, Tuple

import repro.api as api
from repro.workloads.suite import WORKLOADS, load_workload, reference_output

#: Strata per workload: ``(category, members)``. The seed picks one
#: member of each stratum. Members of a stratum are suite programs of
#: one category (int/fp) whose operation on that workload costs about
#: the same host time and simulates about as many instructions per host
#: second (measured on a 2-vCPU x86-64 container, listed in README.md),
#: so that samples drawn with different seeds agree on ``sim_ips``,
#: ``op_s.p50`` and ``op_s.tail``. A stratum with one member is always
#: in the sample. ``fast-warm`` and ``slow`` have an odd number of
#: strata, and every stratum lies wholly below or wholly above the
#: middle one in cost, so the median operation is always one of the
#: middle stratum's (a ``campaign-cold`` operation is a whole campaign).
STRATA: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    # Persisted-warm FastSim at train scale costs 0.05-0.56 s per
    # program. The frame leaves out compress, ijpeg and li, whose costs
    # sit between strata, so that no seed moves a program across the
    # middle stratum (apsi/hydro2d/su2cor) or the costliest (perl),
    # which sets op_s.tail.
    "fast-warm": (
        ("fp", ("fpppp",)),
        ("int", ("vortex", "gcc")),
        ("int", ("m88ksim", "go")),
        ("fp", ("apsi", "hydro2d", "su2cor")),
        ("fp", ("applu", "wave5")),
        ("fp", ("mgrid", "swim", "turb3d", "tomcatv")),
        ("int", ("perl",)),
    ),
    # SlowSim at test scale costs 0.6-4.2 s per program. The frame
    # leaves out the five costliest fp programs (hydro2d, swim, applu,
    # tomcatv, wave5: 3.2-4.2 s each) so that a run holds more than
    # two passes, and ijpeg, whose rate (7k inst/s) no other int
    # program shares.
    "slow": (
        ("int", ("m88ksim",)),
        ("int", ("vortex", "gcc")),
        ("int", ("go",)),
        ("int", ("perl", "li", "compress")),
        ("fp", ("fpppp",)),
        ("fp", ("apsi", "su2cor")),
        ("fp", ("turb3d", "mgrid")),
    ),
    "campaign-cold": (
        ("int", ("m88ksim", "go")),
        ("int", ("vortex", "gcc", "ijpeg")),
        ("int", ("compress", "perl", "li")),
        ("fp", ("fpppp",)),
        ("fp", ("applu", "hydro2d", "apsi")),
        ("fp", ("wave5", "su2cor")),
        ("fp", ("turb3d", "swim")),
        ("fp", ("tomcatv", "mgrid")),
    ),
}

DEFAULT_SEED = 1

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

#: Warm passes allowed before the fast-warm archives must have settled.
MAX_WARM_PASSES = 8


def vm_hwm_kib() -> int:
    """This process's peak resident memory (``VmHWM``), in KiB."""
    with open("/proc/self/status") as handle:
        return next(int(line.split()[1]) for line in handle
                    if line.startswith("VmHWM:"))


def sample(workload: str, seed: int) -> List[str]:
    """The seeded stratified sample: one program per stratum."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return [rng.choice(members) for _, members in STRATA[workload]]


# -- correctness gate -------------------------------------------------------

def canonical_result(result) -> Dict[str, object]:
    """``SimulationResult.as_dict()`` without host-time fields."""
    data = result.as_dict()
    data.pop("host_seconds", None)
    return data


def digest(data: Dict[str, object]) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


def digests(data: Dict[str, object]) -> Dict[str, str]:
    """``result``: the canonical bytes. ``timing``: the same without the
    simulator's name — equal for FastSim and SlowSim when they agree
    cycle for cycle (the paper's invariant)."""
    timing = {key: value for key, value in data.items() if key != "name"}
    return {"result": digest(data), "timing": digest(timing)}


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict[str, str]]:
    with open(path) as handle:
        return json.load(handle)["results"]


def write_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict[str, str]]:
    """Recompute every digest the workloads can ask for."""
    results: Dict[str, Dict[str, str]] = {}
    for program in sorted(WORKLOADS):
        for engine, scale in (("fast", "train"), ("fast", "test"),
                              ("slow", "test")):
            result = api.simulate(program, engine=engine, scale=scale)
            results[f"{program}:{engine}:{scale}"] = digests(
                canonical_result(result))
    with open(path, "w") as handle:
        json.dump({"results": results}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return results


class Gate:
    """Checks one canonical result against goldens and the reference."""

    def __init__(self, golden: Dict[str, Dict[str, str]],
                 references: Dict[Tuple[str, str], List[int]]):
        self.golden = golden
        self.references = references

    def check(self, program: str, engine: str, scale: str,
              data: Dict[str, object]) -> List[str]:
        problems = []
        key = f"{program}:{engine}:{scale}"
        got = digests(data)
        expected = self.golden.get(key)
        if expected is None or expected["result"] != got["result"]:
            problems.append(f"{key}: canonical result differs from golden")
        other = self.golden.get(
            f"{program}:{'slow' if engine == 'fast' else 'fast'}:{scale}")
        if other is not None and other["timing"] != got["timing"]:
            problems.append(f"{key}: FastSim and SlowSim disagree")
        if data.get("output") != self.references[(program, scale)]:
            problems.append(f"{key}: output differs from reference_output")
        return problems


class Outcome:
    """What one operation produced, for metrics and checking."""

    __slots__ = ("instructions", "problems", "memo", "jobs")

    def __init__(self) -> None:
        self.instructions = 0
        self.problems: List[str] = []
        #: MemoStats of every simulation in the operation.
        self.memo: list = []
        #: JobResults (campaign operations only).
        self.jobs: list = []


# -- workloads --------------------------------------------------------------

class Workload:
    """Base: a sample, set-up repetitions and one operation kind."""

    name = ""
    engine = "fast"
    scale = "test"

    def __init__(self, seed: int, workdir: str,
                 golden: Dict[str, Dict[str, str]]):
        self.programs = sample(self.name, seed)
        self.rng = random.Random(f"perfbench:{self.name}:{seed}:order")
        self.workdir = workdir
        self.golden = golden
        self.gate: Optional[Gate] = None

    def prepare_gate(self) -> None:
        """Reference outputs, computed once and outside set-up timing."""
        references = {(program, self.scale):
                      reference_output(program, self.scale)
                      for program in self.programs}
        self.gate = Gate(self.golden, references)

    def setup(self, rep: int) -> None:
        """One set-up repetition; the last one's state is used."""
        for program in self.programs:
            load_workload(program, self.scale)

    def describe(self) -> List[str]:
        """Lines about the finished set-up, for the human output."""
        return []

    def instrument(self, patcher) -> None:
        """Untimed probes the workload's checks or metrics need."""

    def worker_peak_kib(self) -> int:
        """Largest peak resident memory of a worker process, in KiB."""
        return 0

    def pass_order(self) -> Sequence[object]:
        """The operations of one pass over the sample."""
        order = list(self.programs)
        self.rng.shuffle(order)
        return order

    def begin_op(self, arg) -> None:
        """Untimed preparation before one operation."""

    def op(self, arg, obs=None):
        """The timed operation: call to canonical bytes."""
        raise NotImplementedError

    def finish_op(self, arg, produced, outcome: Outcome) -> None:
        """Untimed checking after one operation."""
        raise NotImplementedError


class SimulateWorkload(Workload):
    """One in-process ``simulate()`` call per operation."""

    def cache_dir(self) -> Optional[str]:
        return None

    def op(self, program, obs=None):
        result = api.simulate(program, engine=self.engine, scale=self.scale,
                              cache_dir=self.cache_dir(), obs=obs)
        return result, canonical_result(result)

    def finish_op(self, program, produced, outcome: Outcome) -> None:
        result, data = produced
        outcome.instructions = result.instructions
        outcome.memo.append(result.memo)
        outcome.problems += self.gate.check(program, self.engine,
                                            self.scale, data)


class WarmProbe:
    """Records what the last fast-warm operation loaded from its cache.

    Wraps ``CacheStore.load`` and ``segstore.install`` (once per
    simulate call each), so that every timed operation can show it ran
    warm.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.warm_loads = 0
        self.installed = 0

    def install(self, patcher) -> None:
        from repro.campaign.cachedir import CacheStore

        probe = self

        def wrap_load(load):
            def traced_load(store, signature):
                cache = load(store, signature)
                probe.warm_loads += cache is not None
                return cache
            return traced_load

        def wrap_install(install):
            def traced_install(archive, cache):
                stats = install(archive, cache)
                probe.installed += stats["installed"]
                return stats
            return traced_install

        patcher.method(CacheStore, "load", wrap_load)
        patcher.function("repro.memo.segstore", "install", wrap_install)


class FastWarm(SimulateWorkload):
    """Persisted-warm FastSim at train scale: the repeat user's path."""

    name = "fast-warm"
    engine = "fast"
    scale = "train"

    def __init__(self, seed, workdir, golden):
        super().__init__(seed, workdir, golden)
        self._cache: Optional[str] = None
        self.probe = WarmProbe()
        self.warm_passes: Dict[str, int] = {}

    def cache_dir(self) -> Optional[str]:
        return self._cache

    def setup(self, rep: int) -> None:
        if self._cache is not None:
            shutil.rmtree(self._cache)
        self._cache = os.path.join(self.workdir, f"cache-{rep}")
        os.makedirs(self._cache)
        for program in self.programs:
            self.warm_passes[program] = self._prefill(program)

    def describe(self) -> List[str]:
        return ["warm passes until the archives settled: " + ", ".join(
            f"{program} {passes}"
            for program, passes in self.warm_passes.items())]

    def _archives(self) -> Dict[str, str]:
        state = {}
        for name in sorted(os.listdir(self._cache)):
            if name.endswith((".fspc", ".fsseg")):
                with open(os.path.join(self._cache, name), "rb") as handle:
                    state[name] = hashlib.sha256(handle.read()).hexdigest()
        return state

    def _prefill(self, program: str) -> int:
        """Cold run, then warm passes until the archives stop changing."""
        api.simulate(program, engine="fast", scale=self.scale,
                     cache_dir=self._cache)
        before = self._archives()
        for passes in range(1, MAX_WARM_PASSES + 1):
            api.simulate(program, engine="fast", scale=self.scale,
                         cache_dir=self._cache)
            after = self._archives()
            if after == before:
                return passes
            before = after
        raise RuntimeError(f"{program}: .fspc/.fsseg archives still "
                           f"changing after {MAX_WARM_PASSES} warm passes")

    def instrument(self, patcher) -> None:
        self.probe.install(patcher)

    def begin_op(self, program) -> None:
        self.probe.reset()

    def finish_op(self, program, produced, outcome: Outcome) -> None:
        super().finish_op(program, produced, outcome)
        result = produced[0]
        if self.probe.warm_loads != 1:
            outcome.problems.append(f"{program}: operation did not "
                                    "warm-start from the cache dir")
        if result.memo.detailed_instructions:
            outcome.problems.append(
                f"{program}: {result.memo.detailed_instructions} "
                "instructions simulated in detail on a warm run")
        if not self.probe.installed:
            outcome.problems.append(f"{program}: no compiled segment "
                                    "installed from .fsseg")


class Slow(SimulateWorkload):
    """SlowSim at test scale: the detailed simulator alone."""

    name = "slow"
    engine = "slow"
    scale = "test"


class CampaignCold(Workload):
    """A fork-backend campaign over the sample, on an empty cache dir."""

    name = "campaign-cold"
    engine = "fast"
    scale = "test"
    workers = 2

    def __init__(self, seed, workdir, golden):
        super().__init__(seed, workdir, golden)
        self.ops = 0
        self._cache = ""
        self._peaks = os.path.join(workdir, "worker-peaks")
        self._worker_peak = 0

    def instrument(self, patcher) -> None:
        """Make every forked worker leave its peak resident memory in a
        file. ``RUSAGE_CHILDREN`` would also count the interpreters
        set-up starts to time imports, which are about as large."""
        import repro.campaign.backends.fork as fork

        directory = self._peaks
        os.makedirs(directory)

        def wrap(child_main):
            def peak_recording_child_main(*args, **kwargs):
                try:
                    child_main(*args, **kwargs)
                finally:
                    path = os.path.join(directory, str(os.getpid()))
                    with open(path, "w") as handle:
                        handle.write(str(vm_hwm_kib()))
            return peak_recording_child_main

        patcher.set(fork, "child_main", wrap(fork.child_main))

    def worker_peak_kib(self) -> int:
        for name in os.listdir(self._peaks):
            path = os.path.join(self._peaks, name)
            with open(path) as handle:
                self._worker_peak = max(self._worker_peak,
                                        int(handle.read()))
            os.unlink(path)
        return self._worker_peak

    def pass_order(self) -> Sequence[object]:
        order = list(self.programs)
        self.rng.shuffle(order)
        return [tuple(order)]

    def begin_op(self, programs) -> None:
        self.ops += 1
        self._cache = os.path.join(self.workdir, f"campaign-{self.ops}")

    def op(self, programs, obs=None):
        campaign = api.run_campaign(
            workloads=list(programs), simulators=("fast",),
            scale=self.scale, workers=self.workers, cache_dir=self._cache,
            obs=obs)
        return campaign, campaign.canonical_json()

    def finish_op(self, programs, produced, outcome: Outcome) -> None:
        campaign, text = produced
        shutil.rmtree(self._cache, ignore_errors=True)
        self.worker_peak_kib()
        outcome.jobs = list(campaign.results)
        jobs = json.loads(text)["jobs"]
        if [job["key"] for job in jobs] != [
                f"{program}:fast:{self.scale}" for program in programs]:
            outcome.problems.append("campaign jobs differ from the sample")
        for program, job, job_result in zip(programs, jobs,
                                            campaign.results):
            if job["status"] != "ok" or "result" not in job:
                outcome.problems.append(
                    f"{job['key']}: {job['status']} {job.get('error', '')}")
                continue
            outcome.instructions += job["result"]["instructions"]
            outcome.memo.append(job_result.result.memo)
            outcome.problems += self.gate.check(
                program, self.engine, self.scale, job["result"])


WORKLOAD_CLASSES = {cls.name: cls for cls in (FastWarm, Slow, CampaignCold)}
