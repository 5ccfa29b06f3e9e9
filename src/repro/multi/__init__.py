"""Full-processor extension: DGEMM across the four core groups.

The paper optimizes one CG; the SW26010 has four, connected by a
network-on-chip (NoC), each with its own memory controller and 8 GB
DRAM slice (Sec II, Figure 1).  HPL runs DGEMM across all four, so this
subpackage extends the reproduction to the full chip:

- :mod:`repro.multi.noc` — a functional+costed NoC (inter-CG copies);
- :mod:`repro.multi.processor` — the 4-CG SW26010 device;
- :mod:`repro.multi.dgemm4` — block-column-parallel DGEMM: C and B are
  partitioned by columns across CGs, A is broadcast over the NoC, each
  CG runs the paper's single-CG SCHED kernel on its panel;
- :mod:`repro.multi.scheduler` — :class:`CGScheduler`, the device pool
  that dispatches independent batch items across the CGs (longest-first,
  least-modeled-load), each CG behind its own long-lived
  :class:`~repro.core.context.ExecutionContext`.

The NoC bandwidth is **not** published in the paper; the model uses a
documented assumption (16 GB/s per link) and the scaling experiment
reports sensitivity to it.
"""

from repro.multi.noc import NoC, NoCStats
from repro.multi.processor import SW26010Processor
from repro.multi.dgemm4 import MultiCGEstimate, dgemm_multi_cg, estimate_multi_cg
from repro.multi.scheduler import (
    CGScheduler,
    CGTraffic,
    ItemError,
    SchedulePlan,
    ScheduleResult,
)

__all__ = [
    "NoC",
    "NoCStats",
    "SW26010Processor",
    "dgemm_multi_cg",
    "estimate_multi_cg",
    "MultiCGEstimate",
    "CGScheduler",
    "CGTraffic",
    "ItemError",
    "SchedulePlan",
    "ScheduleResult",
]
