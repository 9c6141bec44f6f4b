"""Real-transport node runtime.

A node runtime is a :class:`~repro.core.world.World` hosting one
validator id plus a remote leg: the world is the simulator's own
assembly (validator, network, sleep controller), built by the same
builder call that, with every id hosted, is the deployment's correctness
oracle.  A loopback deployment on a fixed seed therefore reaches
decision sequences byte-identical to the simulator — for the stable,
churn, late-join and bursty families, the structural baselines, any
number of crash windows per node, and runs where a node is SIGKILLed
and restarted mid-run.  See docs/ARCHITECTURE.md, "Real transport
runtime".
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
