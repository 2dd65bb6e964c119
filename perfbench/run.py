"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fast-warm --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` spends half of ``--seconds`` on the same untraced loop
and half on a traced one, and prints the per-layer metrics. The last
line of standard output is one JSON object; the lines before it say
the same for a human. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

_clock = time.perf_counter
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Layer self sums plus unattributed time must match the traced wall
#: within this share of it.
TRACE_TOLERANCE = 0.01

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: The program modules the benchmark drives, imported by set-up.
PROGRAM_MODULES = ("repro.api", "repro.campaign.backends.fork",
                   "repro.memo.segstore", "repro.sim.slowsim")

#: per-layer metric -> tracer layer whose self seconds it reports.
LAYER_SECONDS = (
    ("emulator.frontend_s", "emulator.frontend"),
    ("cache.access_s", "cache.access"),
    ("memo.replay_s", "memo.replay"),
    ("uarch.detailed_s", "uarch.detailed"),
    ("memo.record_s", "memo.record"),
    ("memo.resync_s", "memo.resync"),
    ("memo.persist_write_s", "memo.persist_write"),
    ("memo.capture_s", "memo.capture"),
    ("memo.persist_read_s", "memo.persist_read"),
    ("memo.install_s", "memo.install"),
    ("cache.construct_s", "cache.construct"),
    ("sim.construct_s", "sim.construct"),
    ("isa.assemble_s", "isa.assemble"),
    ("campaign.dispatch_s", "campaign.dispatch"),
    ("campaign.wait_s", "campaign.wait"),
    ("campaign.collect_s", "campaign.collect"),
    ("campaign.merge_s", "campaign.merge"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("fast-warm", "slow", "campaign-cold"))
    parser.add_argument("--seed", type=int, default=None,
                        help="picks the stratified program sample "
                             "(default: the recorded default seed)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute perfbench/golden.json and exit")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    return args


def import_program() -> None:
    """Import the program from the checkout's ``src``; exit 2 without it
    (an installed copy elsewhere must not stand in for it)."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program sources at {source}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, source)
    try:
        for module in PROGRAM_MODULES:
            __import__(module)
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {source}: {exc}",
              file=sys.stderr)
        sys.exit(2)


def fresh_import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    code = ("import sys, time\n"
            f"sys.path.insert(0, {os.path.join(ROOT, 'src')!r})\n"
            "started = time.perf_counter()\n"
            f"for module in {PROGRAM_MODULES!r}:\n"
            "    __import__(module)\n"
            "print(time.perf_counter() - started)\n")
    completed = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                               capture_output=True, text=True, check=True,
                               timeout=120)
    return float(completed.stdout)


class Phase:
    """Operations of one timed loop (untraced or traced)."""

    def __init__(self) -> None:
        self.op_times = []
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.memo = []
        self.jobs = []
        self.unattributed = 0.0
        self.children = []
        #: Tracer frames left open by an operation, or charged between
        #: operations.
        self.trace_problems = []
        #: Instructions and wall seconds of the successful operations.
        self.ok_instructions = 0
        self.ok_seconds = 0.0

    @property
    def wall(self) -> float:
        return sum(self.op_times)


def run_phase(workload, seconds: float, traced: bool = False, obs=None,
              child_dir=None) -> Phase:
    """Whole passes over the sample; stops at the first pass boundary
    after *seconds*."""
    from perfbench.layers import TRACER, collect_children
    from perfbench.workloads import Outcome

    phase = Phase()
    started = _clock()
    covered = TRACER.covered()
    while True:
        for arg in workload.pass_order():
            outcome = Outcome()
            workload.begin_op(arg)
            if traced and TRACER.covered() != covered:
                phase.trace_problems.append(
                    f"{arg}: layer time charged between operations")
            covered = TRACER.covered()
            op_started = _clock()
            try:
                produced = workload.op(arg, obs)
            except Exception as exc:  # counted, never dropped
                produced = None
                outcome.problems.append(
                    f"{arg}: {type(exc).__name__}: {exc}")
            elapsed = _clock() - op_started
            if traced:
                phase.unattributed += elapsed - (TRACER.covered() - covered)
                covered = TRACER.covered()
                if len(TRACER.stack) != 1:
                    phase.trace_problems.append(
                        f"{arg}: {len(TRACER.stack) - 1} layer frames "
                        "still open after the operation")
                if child_dir is not None:
                    phase.children += collect_children(child_dir)
            if produced is not None:
                try:
                    workload.finish_op(arg, produced, outcome)
                except Exception as exc:
                    outcome.problems.append(
                        f"{arg}: check raised {type(exc).__name__}: {exc}")
            phase.attempted += 1
            phase.op_times.append(elapsed)
            phase.memo += outcome.memo
            phase.jobs += outcome.jobs
            if outcome.problems:
                phase.failed += 1
                for problem in outcome.problems:
                    print(f"perfbench: FAIL {problem}", file=sys.stderr)
            else:
                phase.ok_instructions += outcome.instructions
                phase.ok_seconds += elapsed
        phase.passes += 1
        if _clock() - started >= seconds:
            return phase


def tail(op_times):
    """The highest percentile with at least ten samples beyond it, and
    the median when that would lie below it (20 samples or fewer).
    Returns ``(value, percentile)``."""
    ordered = sorted(op_times)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def reset_peak_rss() -> None:
    """Restart this process's resident-memory high-water mark, so that
    set-up does not set the peak the timed loop reports."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def end_to_end(phase: Phase, setup_s: float, workload):
    from perfbench.workloads import vm_hwm_kib

    value, percentile = tail(phase.op_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "sim_ips": (_ratio(phase.ok_instructions, phase.ok_seconds),
                    "inst/s"),
        "op_s.p50": (statistics.median(phase.op_times), "s"),
        "op_s.tail": (value, "s"),
        "peak_rss_mb": ((vm_hwm_kib() + workload.worker_peak_kib())
                        / 1024.0, "MB"),
    }
    notes = [f"op_s.tail is p{percentile:.1f} of "
             f"{len(phase.op_times)} operations",
             f"fail_frac = {phase.failed / phase.attempted:.4f} ratio "
             f"({phase.failed} of {phase.attempted} operations)"]
    return metrics, notes


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced: Phase, traced: Phase, obs, workers: int):
    """Per-operation layer metrics from the traced phase."""
    from perfbench.layers import TRACER

    ops = traced.attempted
    snapshot = TRACER.snapshot()
    self_s = dict(snapshot["self_s"])
    counts = dict(snapshot["counts"])
    extra = dict(snapshot["extra"])
    problems = list(traced.trace_problems)
    if snapshot["misnested"]:
        problems.append(f"{snapshot['misnested']} layer frames closed "
                        "out of order")
    wall = traced.wall
    attributed = sum(self_s.values())
    if abs(attributed + traced.unattributed - wall) > TRACE_TOLERANCE * wall:
        problems.append(
            f"layer self times {attributed:.4f}s + unattributed "
            f"{traced.unattributed:.4f}s != traced wall {wall:.4f}s")
    for child in traced.children:
        child_sum = sum(child["self_s"].values())
        child_gap = child["wall"] - child["covered"]
        if abs(child_sum + child_gap - child["wall"]) > (
                TRACE_TOLERANCE * child["wall"]):
            problems.append(
                f"worker layer self times {child_sum:.4f}s + unattributed "
                f"{child_gap:.4f}s != worker wall {child['wall']:.4f}s")
        if child["depth"] or child["misnested"]:
            problems.append(
                f"worker left {child['depth']} layer frames open and "
                f"closed {child['misnested']} out of order")
        for table, source in ((self_s, "self_s"), (counts, "counts"),
                              (extra, "extra")):
            for key, value in child[source].items():
                table[key] = table.get(key, 0) + value

    metrics = {}
    for metric, layer in LAYER_SECONDS:
        metrics[metric] = (self_s.get(layer, 0.0) / ops, "s")
    metrics["emulator.events"] = (counts.get("events", 0) / ops, "count")
    metrics["emulator.rollbacks"] = (counts.get("rollbacks", 0) / ops,
                                     "count")
    metrics["cache.accesses"] = (counts.get("accesses", 0) / ops, "count")
    metrics["cache.l1_filter_hit_ratio"] = (_ratio(
        extra.get("filter_hits", 0), extra.get("filter_probes", 0)), "ratio")
    registry = obs.registry.counters
    metrics["memo.side_exit_ratio"] = (_ratio(
        registry["turbo.side_exits"].value
        if "turbo.side_exits" in registry else 0,
        registry["turbo.segment_replays"].value
        if "turbo.segment_replays" in registry else 0), "ratio")
    installed = extra.get("install_installed", 0)
    metrics["memo.segstore_install_ratio"] = (_ratio(
        installed, installed + extra.get("install_stale", 0)
        + extra.get("install_mismatched", 0)), "ratio")
    detailed = sum(memo.detailed_instructions for memo in traced.memo)
    replayed = sum(memo.replayed_instructions for memo in traced.memo)
    metrics["memo.detailed_frac"] = (_ratio(detailed, detailed + replayed),
                                     "ratio")
    metrics["memo.persist_bytes"] = (extra.get("persist_bytes", 0) / ops,
                                     "bytes")
    job_s = sum(job.host_seconds for job in traced.jobs)
    metrics["campaign.job_s"] = (job_s / ops, "s")
    metrics["campaign.idle_frac"] = (
        1.0 - job_s / (workers * wall) if traced.jobs else 0.0, "ratio")
    metrics["campaign.attempts_per_job"] = (_ratio(
        sum(job.attempts for job in traced.jobs), len(traced.jobs)), "count")
    metrics["trace.overhead_frac"] = (
        (wall / traced.passes) / (untraced.wall / untraced.passes) - 1.0,
        "ratio")
    metrics["trace.unattributed_frac"] = (traced.unattributed / wall,
                                          "ratio")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, ROOT)
    from perfbench import workloads as wl

    if args.write_golden:
        wl.write_golden()
        print(f"perfbench: wrote {wl.GOLDEN_PATH}")
        return 0

    seed = wl.DEFAULT_SEED if args.seed is None else args.seed
    golden = wl.load_golden()
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        return measure(args, seed, golden, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, seed, golden, workdir) -> int:
    from perfbench import layers
    from perfbench import workloads as wl

    workload = wl.WORKLOAD_CLASSES[args.workload](seed, workdir, golden)
    picked = {category: [program for (kind, _), program
                         in zip(wl.STRATA[workload.name], workload.programs)
                         if kind == category]
              for category in ("int", "fp")}
    print(f"perfbench: workload {workload.name} seed {seed} sample "
          f"int={picked['int']} fp={picked['fp']}")
    reps = []
    for rep in range(SETUP_REPS):
        import_s = fresh_import_seconds()
        started = _clock()
        workload.setup(rep)
        reps.append(import_s + _clock() - started)
    setup_s = statistics.median(reps)
    for note in workload.describe():
        print(f"perfbench: {note}")
    workload.prepare_gate()
    reset_peak_rss()

    patcher = layers.Patcher()
    campaign = isinstance(workload, wl.CampaignCold)
    try:
        workload.instrument(patcher)
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = run_phase(workload, seconds)
        phases = [untraced]
        problems = []
        if args.trace:
            obs = layers.TracingObserver()
            child_dir = None
            if campaign:
                child_dir = os.path.join(workdir, "workers")
                os.makedirs(child_dir)
                layers.TRACER.child_dir = child_dir
            layers.install_layers(patcher, campaign=campaign)
            layers.TRACER.reset()
            traced = run_phase(workload, seconds, traced=True, obs=obs,
                               child_dir=child_dir)
            phases.append(traced)
            metrics, problems = per_layer(
                untraced, traced, obs,
                workers=getattr(workload, "workers", 1))
            notes = [f"traced {traced.attempted} operations in "
                     f"{traced.passes} passes"]
        else:
            metrics, notes = end_to_end(untraced, setup_s, workload)
    finally:
        patcher.restore()

    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    for problem in problems:
        print(f"perfbench: TRACE {problem}", file=sys.stderr)
    for note in notes:
        print(f"perfbench: {note}")
    for name, (value, unit) in metrics.items():
        print(f"perfbench: {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
