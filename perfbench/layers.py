"""Outside-in layer tracing for the benchmark's traced run.

Nothing here edits the program. :class:`Patcher` rebinds public
functions and methods of each layer to timing wrappers at run time and
puts the originals back afterwards; :class:`TracingObserver` turns the
``memo.record`` / ``memo.replay`` / ``memo.resync`` spans the memo
engine already emits through a :class:`repro.obs.Observer` into frames
on the same stack.

Every wrapped call pushes a frame on one stack. On exit the frame's
duration, minus the time of the wrapped calls nested inside it, is
added to its layer as *self time*, and the full duration is charged to
the enclosing frame's child time. The root frame's own time is the
share of the wall that no layer covers (``unattributed``). A frame that
finds another frame on top of the stack when it closes is counted in
``misnested``: its time would land on the wrong layer.

The stack is per process, not per thread: the campaign engine runs on
one background thread while the caller's thread blocks, so their
frames nest on one stack. Forked campaign workers inherit the patched
code; :func:`traced_child_main` resets the stack in the child and
writes the child's totals to a file the parent collects.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.obs.core import Observer

_clock = time.perf_counter


class Tracer:
    """Frame stack plus per-layer self-time and count accumulators."""

    def __init__(self) -> None:
        #: Directory forked campaign workers write their totals into.
        self.child_dir: Optional[str] = None
        self.reset()

    def reset(self) -> None:
        #: Each frame is ``[child_seconds]``; index 0 is the root.
        self.stack: List[List[float]] = [[0.0]]
        #: Frames that closed while another frame was on top of them.
        self.misnested = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: MemorySystem instances built since the last harvest.
        self.memories: List[object] = []
        #: Counters harvested from the instances above and from probes.
        self.extra: Dict[str, float] = defaultdict(float)

    def covered(self) -> float:
        """Seconds the root's direct children covered so far."""
        return self.stack[0][0]

    def harvest_memories(self) -> None:
        """Fold L1-filter counters of finished memory systems in."""
        for memory in self.memories:
            stats = memory.filter_stats()
            self.extra["filter_hits"] += stats["hits"]
            self.extra["filter_probes"] += stats["hits"] + stats["misses"]
        self.memories = []

    def snapshot(self) -> Dict[str, object]:
        self.harvest_memories()
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "extra": dict(self.extra), "covered": self.covered(),
                "depth": len(self.stack) - 1, "misnested": self.misnested}

    def close(self, frame: List[float], layer: str,
              duration: float) -> None:
        """Pop *frame* and charge its self time to *layer*."""
        stack = self.stack
        if stack.pop() is not frame:
            self.misnested += 1
        self.self_s[layer] += duration - frame[0]
        stack[-1][0] += duration


TRACER = Tracer()


class _Frame:
    """Context manager form of one wrapped call (used for obs spans)."""

    __slots__ = ("layer", "frame", "started")

    def __init__(self, layer: str):
        self.layer = layer

    def __enter__(self) -> None:
        self.frame = [0.0]
        TRACER.stack.append(self.frame)
        self.started = _clock()

    def __exit__(self, exc_type, exc, tb) -> bool:
        TRACER.close(self.frame, self.layer, _clock() - self.started)
        return False


#: memo-engine spans that become frames (the span name is the layer).
MEMO_SPANS = frozenset({"memo.record", "memo.replay", "memo.resync"})


class TracingObserver(Observer):
    """An :class:`Observer` whose memo spans become tracer frames.

    Counters and gauges still land in the registry (turbo side exits,
    segment replays), and campaign workers ship that registry back as
    their telemetry blob. Sampling is effectively off so the sampled
    series add no cost.
    """

    def __init__(self, **kwargs):
        kwargs["sample_every"] = 1 << 40
        super().__init__(**kwargs)

    def span(self, name: str, /, cat: str = "obs", **args: object):
        if name not in MEMO_SPANS:  # sim.run and co. are not attributed
            return contextlib.nullcontext()
        return _Frame(name)


def timed(func: Callable, layer: str, count: Optional[str] = None,
          after: Optional[Callable] = None) -> Callable:
    """Wrap *func* so each call is a frame charged to *layer*.

    *count* names a counter bumped once per call; *after* is called
    with ``(args, result)`` inside the frame for probes that read the
    call's outcome.
    """
    tracer = TRACER

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        frame = [0.0]
        tracer.stack.append(frame)
        started = _clock()
        try:
            result = func(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        finally:
            tracer.close(frame, layer, _clock() - started)
            if count is not None:
                tracer.counts[count] += 1

    return wrapper


class Patcher:
    """Rebinds attributes and restores them in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]
                           if isinstance(owner, type)
                           else getattr(owner, name)))
        setattr(owner, name, value)

    def function(self, module: str, name: str, make: Callable) -> None:
        """Wrap a module-level function everywhere it was imported by
        name inside ``repro`` (``from x import f`` makes aliases)."""
        original = getattr(importlib.import_module(module), name)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod is not None and mod_name.split(".")[0] == "repro"
                    and getattr(mod, name, None) is original):
                self.set(mod, name, replacement)

    def method(self, cls: type, name: str, make: Callable) -> None:
        self.set(cls, name, make(cls.__dict__[name]))

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


# -- the layer map ----------------------------------------------------------

def _persist_bytes(path_of: str) -> Callable:
    def after(args, result) -> None:
        if result is not None:
            store, signature = args[0], args[1]
            TRACER.extra["persist_bytes"] += os.path.getsize(
                getattr(store, path_of)(signature))
    return after


def _install_stats(args, result) -> None:
    for key, value in result.items():
        TRACER.extra[f"install_{key}"] += value


def _remember_memory(args, result) -> None:
    TRACER.memories.append(args[0])


def install_layers(patcher: Patcher, campaign: bool = False) -> None:
    """Wrap every measured layer's public entry points.

    With *campaign*, also wrap the fork backend, the campaign merge and
    the worker entry point (so forked workers report their own layer
    times), and make worker telemetry collectors trace memo spans.
    """
    from repro.cache.hierarchy import MemorySystem
    from repro.campaign.cachedir import CacheStore
    from repro.emulator.frontend import SpeculativeFrontend
    from repro.sim.slowsim import SlowSim
    from repro.sim.world import World

    patcher.function("repro.isa.assembler", "assemble",
                     lambda f: timed(f, "isa.assemble"))
    patcher.method(SpeculativeFrontend, "run_one_event",
                   lambda f: timed(f, "emulator.frontend", "events"))
    patcher.method(SpeculativeFrontend, "rollback_to",
                   lambda f: timed(f, "emulator.frontend", "rollbacks"))
    for name in ("issue_load", "issue_store"):
        patcher.method(MemorySystem, name,
                       lambda f: timed(f, "cache.access", "accesses"))
    for name in ("poll_load", "cancel_load"):
        patcher.method(MemorySystem, name,
                       lambda f: timed(f, "cache.access"))
    patcher.method(MemorySystem, "__init__",
                   lambda f: timed(f, "cache.construct",
                                   after=_remember_memory))
    patcher.method(World, "__init__", lambda f: timed(f, "sim.construct"))
    patcher.method(SlowSim, "run", lambda f: timed(f, "uarch.detailed"))
    patcher.method(CacheStore, "load",
                   lambda f: timed(f, "memo.persist_read",
                                   after=_persist_bytes("path_for")))
    patcher.method(CacheStore, "load_segments",
                   lambda f: timed(f, "memo.persist_read",
                                   after=_persist_bytes("seg_path_for")))
    patcher.method(CacheStore, "store",
                   lambda f: timed(f, "memo.persist_write"))
    patcher.method(CacheStore, "store_segments",
                   lambda f: timed(f, "memo.persist_write"))
    patcher.function("repro.memo.segstore", "install",
                     lambda f: timed(f, "memo.install",
                                     after=_install_stats))
    patcher.function("repro.memo.segstore", "capture",
                     lambda f: timed(f, "memo.capture"))
    if not campaign:
        return

    import repro.campaign.backends.fork as fork
    import repro.obs.worker as obs_worker
    from repro.campaign.engine import CampaignResult

    patcher.method(fork.ForkBackend, "start",
                   lambda f: timed(f, "campaign.dispatch"))
    patcher.method(fork.ForkBackend, "submit",
                   lambda f: timed(f, "campaign.dispatch"))
    patcher.method(fork.ForkBackend, "wait",
                   lambda f: timed(f, "campaign.wait"))
    patcher.method(fork.ForkBackend, "reap",
                   lambda f: timed(f, "campaign.collect"))
    patcher.method(CampaignResult, "canonical_json",
                   lambda f: timed(f, "campaign.merge"))
    patcher.set(obs_worker, "Observer", TracingObserver)
    patcher.set(fork, "child_main", traced_child_main(fork.child_main))


def traced_child_main(original: Callable) -> Callable:
    """Worker entry that records the worker's own layer totals."""

    def child_main(*args, **kwargs):
        TRACER.reset()
        started = _clock()
        try:
            original(*args, **kwargs)
        finally:
            wall = _clock() - started
            record = TRACER.snapshot()
            record["wall"] = wall
            path = os.path.join(TRACER.child_dir,
                                f"worker-{os.getpid()}.json")
            with open(path, "w") as handle:
                json.dump(record, handle)

    return child_main


def collect_children(directory: str) -> List[Dict[str, object]]:
    """Read and remove the totals forked workers left in *directory*."""
    records = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("worker-") and name.endswith(".json"):
            path = os.path.join(directory, name)
            with open(path) as handle:
                records.append(json.load(handle))
            os.unlink(path)
    return records
