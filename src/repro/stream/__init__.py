"""Stream (task-parallel) skeletons.

The paper positions SCL against P3L, whose skeletons "connect together
... single streams", and notes that "parallel composition of concurrent
tasks can be supported ... on top of the SCL layer; thus task parallelism
is supported when it is needed".  This package is that layer: skeletons
over *streams* (Python iterables) rather than distributed arrays:

* :func:`pipeline_machine` — P3L's ``pipe`` on the simulated machine,
  one stage per processor, reproducing the textbook fill/drain law
  ``T ≈ (m + s - 1) · t_stage``,
* :mod:`repro.stream.plan` — *stream plans*: the HsSkel ``Stream`` GADT
  (``stGen``/``stChunk``/``stUnChunk``/``stStop``) as a typed IR whose
  ``MapPlan`` stage executes each chunk through the SCL compiler, the
  plan optimizer and the vectorized data plane, with bounded-queue
  backpressure and stateful stop conditions over infinite sources.  A
  host-thread pipeline of per-item functions is the plan
  ``stream_plan(xs).map_seq(f).map_seq(g).run()``.
"""

from repro.stream.pipeline import PipelineStage, pipeline_machine
from repro.stream.plan import (
    Chunk,
    MapPlan,
    MapSeq,
    Source,
    Stop,
    StreamPlan,
    StreamRunStats,
    UnChunk,
    stream_plan,
)

__all__ = [
    "PipelineStage",
    "pipeline_machine",
    "Source",
    "Chunk",
    "UnChunk",
    "MapSeq",
    "MapPlan",
    "Stop",
    "StreamPlan",
    "StreamRunStats",
    "stream_plan",
]
