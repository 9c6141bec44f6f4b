"""Real-transport node runtime.

``repro.node`` hosts an *unmodified* protocol validator
(:class:`~repro.core.tobsvd.TobSvdValidator` or the structural baseline)
over a real transport between OS processes, with the discrete-event
simulator kept as the correctness oracle: a loopback deployment on a
fixed seed reaches decision sequences byte-identical to
:func:`repro.harness.scenarios.stable_scenario` on the same
configuration — including runs where a node is SIGKILLed and restarted
mid-run.  See docs/ARCHITECTURE.md, "Real transport runtime".
"""

from repro.node.codec import LineageMemo, decode_envelope, encode_envelope
from repro.node.failure import FailureDetector
from repro.node.holdback import HoldbackQueue
from repro.node.runtime import NodeRuntime

__all__ = [
    "FailureDetector",
    "HoldbackQueue",
    "LineageMemo",
    "NodeRuntime",
    "decode_envelope",
    "encode_envelope",
]
