"""Simulated distributed-memory machine (the paper's AP1000 substitute).

The evaluation in the paper (Table 1, Figure 3) was run on a Fujitsu AP1000
message-passing multicomputer.  We do not have one, so this package provides
a **discrete-event simulator** of a distributed-memory machine:

* :mod:`repro.machine.cost` — machine specifications (latency, bandwidth,
  compute rate) with an AP1000-class preset,
* :mod:`repro.machine.topology` — hypercube / mesh / ring / fully-connected
  interconnects with hop counting,
* :mod:`repro.machine.simulator` — generator-based virtual processors driven
  by an event loop with per-processor virtual clocks,
* :mod:`repro.machine.lockstep` — the same clock rules as plain arithmetic,
  for callers (compiled plans) that can walk all processors' requests
  themselves instead of having them scheduled,
* :mod:`repro.machine.api` — an MPI-like communicator layer (groups, ranks,
  ``split``) on top of simulator point-to-point messages,
* :mod:`repro.machine.collectives` — broadcast / reduce / scan / gather /
  scatter / allgather / alltoall / barrier implemented with the same
  tree and recursive-doubling message patterns an MPI library would use,
* :mod:`repro.machine.reliable` — ack/retransmit messaging with capped
  exponential backoff for runs with fault injection (``repro.faults``),
* :mod:`repro.machine.collectives_ft` — crash-aware collectives that
  degrade to the surviving group or raise a structured ``FaultError``.

Programs carry *real data* (so results are checkable) while the simulator
charges *virtual time* from the cost model (so the paper's performance shape
is reproducible on one laptop, independent of Python's GIL).
"""

from repro.machine.cost import MachineSpec, AP1000, MODERN_CLUSTER, PERFECT, estimate_nbytes
from repro.machine.topology import (
    Topology,
    Hypercube,
    Ring,
    Mesh2D,
    FullyConnected,
)
from repro.machine.simulator import Machine, ProcEnv, RunResult, ProcStats
from repro.machine.api import Comm
from repro.machine.reliable import ReliableChannel
from repro.machine import (collectives, collectives_ext, collectives_ft,
                           metrics, reliable)

__all__ = [
    "MachineSpec",
    "AP1000",
    "MODERN_CLUSTER",
    "PERFECT",
    "estimate_nbytes",
    "Topology",
    "Hypercube",
    "Ring",
    "Mesh2D",
    "FullyConnected",
    "Machine",
    "ProcEnv",
    "RunResult",
    "ProcStats",
    "Comm",
    "ReliableChannel",
    "collectives",
    "collectives_ext",
    "collectives_ft",
    "metrics",
    "reliable",
]
