"""Deterministic discrete-event simulation kernel.

Time is an integer tick counter; the network delay bound Delta is a
configurable number of ticks (see :class:`repro.sim.clock.TimeConfig`).
Events at the same tick execute in a fixed priority order — control events
(wake/sleep/corruption), then message deliveries, then protocol timers —
with FIFO sequence numbers breaking remaining ties, so a message sent at
time ``t`` and delivered "by time ``t + Delta``" is always visible to the
timer that fires at ``t + Delta``, exactly as the paper's pseudo-code
assumes.
"""

from repro.sim.clock import TimeConfig
from repro.sim.simulator import EventPriority, Simulator

__all__ = ["TimeConfig", "EventPriority", "Simulator"]
