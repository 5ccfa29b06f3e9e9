"""Automatic blocking-parameter tuning (the paper's future work).

The conclusion announces "automatic code generation and automatic
performance tuning"; :mod:`repro.isa.scheduler` covers the code
generation half, this subpackage the tuning half:
:mod:`repro.tuning.search` enumerates every blocking configuration
that satisfies the hardware constraints and ranks them with the
analytic performance model — the Sec III-C derivation, mechanized.
"""

from repro.tuning.search import Candidate, TuningResult, autotune, enumerate_candidates

__all__ = [
    "Candidate",
    "TuningResult",
    "autotune",
    "enumerate_candidates",
]
