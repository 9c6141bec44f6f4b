"""The paper's primary contribution: GA-2, GA-3 and TOB-SVD.

Layout:

* :mod:`repro.core.state` — the per-GA-instance validator state ``V``,
  ``E``, ``S`` of Section 3.3 and the message-handling rules;
* :mod:`repro.core.quorum` — time-shifted quorum arithmetic: majority
  support over (sender, log) pairs, snapshot intersections;
* :mod:`repro.core.ga` — a parametric Graded Agreement engine instantiated
  as the k=2 protocol (paper Figure 1) and the k=3 protocol (Figure 2);
* :mod:`repro.core.validator` — base class for honest protocol validators;
* :mod:`repro.core.world` — run assembly: the substrate every simulated
  driver is built on and the order its calendar is written in;
* :mod:`repro.core.ga_host` — a standalone validator that runs exactly one
  GA instance (used by the GA experiments and property tests);
* :mod:`repro.core.proposals` — proposal books with equivocation discard
  and VRF verification;
* :mod:`repro.core.tobsvd` — the TOB-SVD protocol of Figure 4.
"""

from repro.core.finality import FinalityGadget, FinalityTimeline, run_gadget_over_trace
from repro.core.ga import GA2_SPEC, GA3_SPEC, NAIVE_GA2_SPEC, GaInstance, GaSpec, GradeSpec
from repro.core.recovery import (
    RecoveringTobSvdValidator,
    build_lossy_protocol_without_recovery,
    build_recovery_protocol,
)
from repro.core.ga_host import GaHostValidator, run_standalone_ga
from repro.core.proposals import ProposalBook
from repro.core.quorum import majority_chain, pair_intersection, support_count
from repro.core.state import HandleOutcome, LogView, Snapshot
from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol, TobSvdValidator
from repro.core.validator import BaseValidator

__all__ = [
    "FinalityGadget",
    "FinalityTimeline",
    "run_gadget_over_trace",
    "RecoveringTobSvdValidator",
    "build_lossy_protocol_without_recovery",
    "build_recovery_protocol",
    "GA2_SPEC",
    "GA3_SPEC",
    "NAIVE_GA2_SPEC",
    "GaInstance",
    "GaSpec",
    "GradeSpec",
    "GaHostValidator",
    "run_standalone_ga",
    "ProposalBook",
    "majority_chain",
    "pair_intersection",
    "support_count",
    "HandleOutcome",
    "LogView",
    "Snapshot",
    "TobSvdConfig",
    "TobSvdProtocol",
    "TobSvdValidator",
    "BaseValidator",
]
