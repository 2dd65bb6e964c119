"""The out-of-order μ-architecture model.

* :class:`ProcessorParams` — the paper's Table 1 configuration
* :class:`DetailedSimulator` — cycle-accurate pipeline (a generator
  yielding :mod:`~repro.uarch.interactions` requests)
* :class:`InstructionQueue` / :class:`IQEntry` / :class:`Stage` — the iQ
* :mod:`~repro.uarch.scans` — the per-cycle retire/issue/dispatch scans
  shared with the integrated baseline
* :func:`encode_config` / :func:`decode_config` — configuration codec
"""

from repro.uarch.config_codec import (
    config_size_bytes,
    decode_config,
    encode_config,
)
from repro.uarch.detailed import DetailedSimulator
from repro.uarch.interactions import (
    CycleBoundary,
    Finished,
    GetControl,
    IssueLoad,
    IssueStore,
    PollLoad,
    Request,
    Retire,
    Rollback,
)
from repro.uarch.iq import IQEntry, InstructionQueue, Stage
from repro.uarch.params import ProcessorParams
from repro.uarch.profile import PipelineProfile, profile_pipeline
from repro.uarch.trace import (
    CycleSnapshot,
    PipelineTracer,
    format_snapshot,
    trace_pipeline,
)

__all__ = [
    "ProcessorParams",
    "DetailedSimulator",
    "InstructionQueue",
    "IQEntry",
    "Stage",
    "encode_config",
    "decode_config",
    "config_size_bytes",
    "Request",
    "GetControl",
    "IssueLoad",
    "PollLoad",
    "IssueStore",
    "Rollback",
    "Retire",
    "CycleBoundary",
    "Finished",
    "PipelineTracer",
    "CycleSnapshot",
    "trace_pipeline",
    "format_snapshot",
    "PipelineProfile",
    "profile_pipeline",
]
