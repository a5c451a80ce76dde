"""SCL — Parallel Skeletons for Structured Composition.

A complete Python implementation of the system described in

    J. Darlington, Y. Guo, H. W. To, J. Yang,
    "Parallel Skeletons for Structured Composition", PPoPP 1995.

Parallel programs are built by composing sequential base-language
procedures with three families of functional skeletons:

* **configuration skeletons** — :func:`~repro.core.partition`,
  :func:`~repro.core.align`, :func:`~repro.core.distribution`,
  :func:`~repro.core.redistribution`, :func:`~repro.core.gather`,
  :func:`~repro.core.split`, :func:`~repro.core.combine`,
* **elementary skeletons** — :func:`~repro.core.parmap` (the paper's
  ``map``), :func:`~repro.core.imap`, :func:`~repro.core.fold`,
  :func:`~repro.core.scan`, and the communication skeletons
  :func:`~repro.core.rotate`, :func:`~repro.core.rotate_row`,
  :func:`~repro.core.rotate_col`, :func:`~repro.core.brdcast`,
  :func:`~repro.core.apply_brdcast`, :func:`~repro.core.send`,
  :func:`~repro.core.fetch`,
* **computational skeletons** — :func:`~repro.core.farm`,
  :func:`~repro.core.spmd`, :func:`~repro.core.iter_until`,
  :func:`~repro.core.iter_for`.

Supporting subsystems:

* :mod:`repro.scl` — skeleton programs as rewritable expressions, with the
  paper's §4 transformation rules (map fusion, map distribution,
  communication algebra, SPMD flattening) and a cost-guided optimiser,
* :mod:`repro.machine` — a discrete-event simulator of a distributed-memory
  machine (AP1000-calibrated cost model, hypercube/mesh topologies, MPI-like
  communicators and collectives) on which skeleton programs run with
  virtual timing — this regenerates the paper's Table 1 and Figure 3,
* real host parallelism — every skeleton's ``executor=`` takes ``None``
  (the calling thread) or a :class:`concurrent.futures.Executor` such as a
  ``ThreadPoolExecutor``,
* :mod:`repro.apps` — the paper's example applications (hyperquicksort,
  Gauss–Jordan) plus Cannon matrix multiply and Jacobi iteration.

Quickstart::

    import operator
    from repro import ParArray, parmap, fold

    squares = parmap(lambda x: x * x, ParArray(range(10)))
    total = fold(operator.add, squares)   # 285
"""

from repro._version import __version__
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    MachineError,
    RewriteError,
    SclError,
    SkeletonError,
    TopologyError,
)
from repro.core import (
    Block,
    BlockCyclic,
    ColBlock,
    ColCyclic,
    Cyclic,
    Index,
    ParArray,
    PartitionPattern,
    RowBlock,
    RowColBlock,
    RowCyclic,
    SpmdStage,
    align,
    apply_brdcast,
    brdcast,
    combine,
    distribution,
    divide_and_conquer,
    farm,
    fetch,
    fold,
    fold_map,
    gather,
    imap,
    iter_for,
    iter_until,
    parmap,
    partition,
    redistribution,
    rotate,
    rotate_col,
    rotate_row,
    scan,
    scan_seq,
    send,
    split,
    spmd,
    unalign,
)

__all__ = [
    "__version__",
    # errors
    "SclError", "ConfigurationError", "SkeletonError", "MachineError",
    "DeadlockError", "TopologyError", "RewriteError",
    # data structure
    "ParArray", "Index",
    # partition patterns
    "PartitionPattern", "Block", "BlockCyclic", "Cyclic", "RowBlock", "ColBlock",
    "RowColBlock", "RowCyclic", "ColCyclic",
    # configuration skeletons
    "partition", "align", "unalign", "distribution", "redistribution",
    "gather", "split", "combine",
    # elementary skeletons
    "parmap", "imap", "fold", "scan", "fold_map", "scan_seq",
    # communication skeletons
    "rotate", "rotate_row", "rotate_col", "brdcast", "apply_brdcast",
    "send", "fetch",
    # computational skeletons
    "farm", "spmd", "SpmdStage", "iter_until", "iter_for",
    "divide_and_conquer",
]
