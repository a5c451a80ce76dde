"""Host-side helpers for the skeleton library.

Skeletons hand their independent work items to the host's own pool: every
``executor=`` takes ``None`` (run in the calling thread) or a
:class:`concurrent.futures.Executor`, whose ``map`` keeps input order.
What is left here is deterministic chunking: contiguous spans of nearly
equal size, shared by the partition patterns, the blocked ``scan`` and the
apps.
"""

from repro.runtime.chunking import chunk_evenly, chunk_indices

__all__ = [
    "chunk_evenly",
    "chunk_indices",
]
