"""The whole-machine form of a fragment: values and charges for all p ranks.

The plan interpreter applies a :class:`~repro.plan.ir.LocalApply` as p
separate Python calls — one per virtual processor — and charges each
rank's :func:`~repro.plan.ir.fragment_ops` with p more.  For a *known*
fragment both are pure dispatch overhead.  This module is the registry
that makes a fragment "known":

* :func:`vectorize_fragment` attaches a fragment's whole-machine form:
  its values (``batched(values) -> values``, one call for all ranks) and,
  with them, its charges (``ops_all(values) -> list[float]``, one call
  for all ranks).  The attributes travel with the callable, so
  registration survives lowering, fusion and caching.
* :func:`batched_apply` is what the data plane
  (:mod:`repro.plan.vexec`) calls for the values: the batched
  implementation when one is registered, a transparent per-rank fallback
  for opaque fragments.  :func:`repro.plan.ir.fragment_ops_all` is its
  twin for the charges.
* :func:`elementwise` builds a registered elementwise fragment from a
  numpy ufunc-like callable in one line (with its :func:`base_fragment`
  cost tag and cost form), and :func:`stack_uniform` is the SoA helper
  batched implementations share — it groups per-rank values by
  shape/dtype so ragged distributions (e.g. column blocks differing by
  one column) still vectorise within each uniform group.
  :func:`group_uniform` exposes the grouping itself (index sets plus the
  stacked C-contiguous array per group).

A form need not be one array operation: where the ranks' blocks are
ragged (the §5 sort's ``SPLIT`` / ``MERGE``) it is one Python loop that
shares what the ranks share and skips the per-rank call layers.

Virtual cost and results are unchanged by contract: ``batched(values)``
equals ``[fn(v) for v in values]`` and ``ops_all(values)`` equals
``[fragment_ops(fn, v) for v in values]``, ``==`` on floats (each form
lands with that property in ``tests/plan/test_kernels.py``).  The
per-rank callable and annotation stay what the interpreter runs and
charges, so it remains the oracle.  Only host time changes.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.plan.ir import base_fragment

__all__ = ["vectorize_fragment", "batched_apply", "has_batched",
           "elementwise", "stack_uniform", "group_uniform"]

#: Attribute carrying the batched implementation on a fragment callable.
_ATTR = "scl_batched"


def vectorize_fragment(fn: Callable[..., Any],
                       batched: Callable[[Sequence[Any]], Sequence[Any]],
                       ops_all: Callable[[Sequence[Any]], list] | None = None):
    """Register the whole-machine form of ``fn``: ``batched`` for its
    values and ``ops_all`` for its charges.

    ``batched(values)`` receives the per-rank values in rank order and
    must return the per-rank results in the same order, computing exactly
    what ``[fn(v) for v in values]`` would — bit-identical results are
    part of the executor's contract.  ``ops_all(values)`` must return
    exactly ``[fragment_ops(fn, v) for v in values]`` as a list of
    floats; a fragment whose cost tag is a constant needs none.  Returns
    ``fn`` (decorator-friendly).
    """
    setattr(fn, _ATTR, batched)
    if ops_all is not None:
        fn.scl_ops_all = ops_all  # read by ir.fragment_ops_all
    return fn


def has_batched(fn: Any) -> bool:
    """True when ``fn`` carries a registered batched implementation."""
    return getattr(fn, _ATTR, None) is not None


def batched_apply(fn: Any, values: Sequence[Any]) -> list:
    """Apply ``fn`` to every rank's value — SoA when registered.

    The vectorized backend's single entry point: registered kernels run
    as one batched call, opaque fragments fall back to the per-rank loop
    transparently.
    """
    batched = getattr(fn, _ATTR, None)
    if batched is not None:
        res = batched(values)
        if not isinstance(res, (list, tuple, np.ndarray)):
            raise ValueError(
                f"batched kernel {getattr(fn, '__name__', fn)!r} returned "
                f"{type(res).__name__}, not a sequence of per-rank values")
        out = list(res)
        if len(out) != len(values):
            raise ValueError(
                f"batched kernel {getattr(fn, '__name__', fn)!r} returned "
                f"{len(out)} values for {len(values)} ranks")
        return out
    return [fn(v) for v in values]


def group_uniform(values: Sequence[Any]
                  ) -> list[tuple[list[int], np.ndarray]]:
    """Group rank values by ``(shape, dtype)`` and stack each group.

    Returns ``[(rank_indices, stacked)]`` where ``stacked`` is the
    C-contiguous ``(g, ...)`` SoA array of the group's values in rank
    order.  Inputs are normalised to C order first, so transposed/strided
    views stack through one fast memcpy per value instead of the strided
    slow path — the grouping key (shape and dtype) is unchanged by the
    normalisation (``np.ascontiguousarray`` would turn a 0-d value into
    shape ``(1,)``, which the per-rank fragment never sees).
    """
    arrays = [np.asarray(v, order="C") for v in values]
    groups: dict[tuple, list[int]] = {}
    for k, a in enumerate(arrays):
        groups.setdefault((a.shape, a.dtype), []).append(k)
    return [(idxs, np.stack([arrays[k] for k in idxs]))
            for idxs in groups.values()]


def stack_uniform(values: Sequence[Any],
                  transform: Callable[[np.ndarray], np.ndarray]) -> list:
    """Apply one array ``transform`` over rank values stacked SoA.

    Values are grouped by ``(shape, dtype)``; each uniform group stacks
    into a single ``(g, ...)`` ndarray, ``transform`` runs once per group
    (vectorised over axis 0), and the results scatter back to rank order.
    Non-array values raise — callers registering kernels via this helper
    guarantee array-valued fragments.
    """
    out: list = [None] * len(values)
    for idxs, stacked in group_uniform(values):
        batch = transform(stacked)
        for j, k in enumerate(idxs):
            out[k] = batch[j]
    return out


def elementwise(ufunc: Callable[[np.ndarray], np.ndarray], *,
                ops_per_elem: float = 1.0,
                name: str | None = None) -> Callable[[Any], np.ndarray]:
    """A registered elementwise fragment from a numpy-vectorisable callable.

    The per-rank form applies ``ufunc`` to one value; the batched form
    applies it once to the SoA stack.  Elementwise numpy arithmetic is
    positionwise-identical either way, so the results are bit-identical.
    The cost form is the cost tag's own expression over the ranks.
    """

    @base_fragment(ops=lambda v: ops_per_elem * np.size(v))
    def frag(value):
        return ufunc(np.asarray(value))

    frag.__name__ = name or getattr(ufunc, "__name__", "elementwise")
    return vectorize_fragment(
        frag, lambda vals: stack_uniform(vals, ufunc),
        lambda vals: [float(ops_per_elem * np.size(v)) for v in vals])
