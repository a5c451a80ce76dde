"""All-pairs N-body force computation on a systolic ring.

The classic rotation-pipeline workout for the ``rotate`` skeleton: bodies
are block-distributed; each of ``p`` rounds every processor accumulates
the forces its resident bodies feel from the currently *visiting* block,
then the visiting blocks rotate one position around the ring.  After ``p``
rounds every pair has met exactly once per direction.

The parallel program is one SCL expression, :func:`nbody_expression`:
``iterFor p`` over a configuration of ``(resident, visiting, forces)``
triples, each round ``map accumulate`` followed by ``redistribution [id,
rotate 1, id]`` — only the visiting block moves (the communication
pattern is exactly the paper's regular-data-movement story: the
destination is a uniform function of the index).  It has two renderings:

* :func:`forces_parallel` — the expression interpreted over a ParArray,
* :func:`forces_compiled` — the expression compiled onto a simulated
  ring, returning the run's virtual timing too.

:func:`forces_seq` is the direct O(n²) reference.  Gravitational
softening keeps the maths finite for coincident bodies.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core import Block, ParArray, partition
from repro.errors import SkeletonError
from repro.machine import AP1000, Machine, MachineSpec, Ring
from repro.machine.simulator import RunResult
from repro.plan.ir import base_fragment

__all__ = ["pairwise_forces", "forces_seq", "nbody_expression",
           "forces_parallel", "forces_compiled"]

#: Operations per body-body interaction (3 subs, 3 mults, rsqrt,
#: accumulate), charged by :func:`accumulate`.
_OPS_PER_INTERACTION = 20.0

#: Softening length squared: keeps self/coincident interactions finite.
_EPS2 = 1e-6


def pairwise_forces(targets: np.ndarray, sources: np.ndarray,
                    masses: np.ndarray) -> np.ndarray:
    """Softened gravitational force on each target from all sources.

    ``targets``: (t, 3) positions; ``sources``: (s, 3); ``masses``: (s,).
    Self-pairs contribute ~0 through the softening term.
    """
    diff = sources[None, :, :] - targets[:, None, :]         # (t, s, 3)
    dist2 = np.sum(diff * diff, axis=2) + _EPS2              # (t, s)
    inv = masses[None, :] * dist2 ** -1.5
    return np.sum(diff * inv[:, :, None], axis=1)            # (t, 3)


def forces_seq(positions: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Direct all-pairs reference."""
    positions = np.asarray(positions, dtype=float)
    masses = np.asarray(masses, dtype=float)
    return pairwise_forces(positions, positions, masses)


def _check(positions: np.ndarray, masses: np.ndarray, p: int) -> None:
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise SkeletonError(f"positions must be (n, 3), got {positions.shape}")
    if masses.shape != (positions.shape[0],):
        raise SkeletonError("masses must match positions")
    if p <= 0 or positions.shape[0] < p:
        raise SkeletonError(
            f"need at least one body per processor ({positions.shape[0]} < {p})")


@base_fragment(ops=lambda state: _OPS_PER_INTERACTION
               * state[0].shape[0] * state[1][0].shape[0])
def accumulate(state):
    """One round on one processor: add the forces the visiting block
    exerts on the resident one."""
    resident, (vis_pos, vis_mass), forces = state
    return (resident, (vis_pos, vis_mass),
            forces + pairwise_forces(resident, vis_pos, vis_mass))


@functools.lru_cache(maxsize=None)
def nbody_expression(p: int):
    """The systolic ring over ``p`` processors as one SCL expression.

    ``iterFor p``: every round is ``map accumulate``, and every round but
    the last is followed by ``redistribution [id, rotate 1, id]``, which
    hands each visiting block to the left neighbour.  Memoised on ``p``,
    so every compile after the first is a plan-cache hit.
    """
    from repro.scl import Id, IterFor, Map, Redistribute, Rotate, compose_nodes

    step = Map(accumulate)
    pass_left = compose_nodes(Redistribute((Id(), Rotate(1), Id())), step)
    return IterFor(p, lambda k: step if k == p - 1 else pass_left)


def _initial_states(positions: np.ndarray, masses: np.ndarray,
                    p: int) -> list:
    """Each processor's ``(resident, (positions, masses), forces)`` before
    round 0, its own block its first visitor."""
    positions = np.asarray(positions, dtype=float)
    masses = np.asarray(masses, dtype=float)
    _check(positions, masses, p)
    return [(pos, (pos, mass), np.zeros_like(pos)) for pos, mass in
            zip(partition(Block(p), positions), partition(Block(p), masses))]


def forces_parallel(positions: np.ndarray, masses: np.ndarray, p: int) -> np.ndarray:
    """:func:`nbody_expression` interpreted over ``p`` virtual processors."""
    from repro.scl import evaluate

    final = evaluate(nbody_expression(p),
                     ParArray(_initial_states(positions, masses, p)))
    return np.concatenate([forces for _res, _vis, forces in final])


def forces_compiled(
    positions: np.ndarray,
    masses: np.ndarray,
    p: int,
    *,
    spec: MachineSpec = AP1000,
) -> tuple[np.ndarray, RunResult]:
    """:func:`nbody_expression` compiled onto a simulated ``p``-ring."""
    from repro.scl.compile import run_expression

    states = _initial_states(positions, masses, p)
    machine = Machine(Ring(p), spec=spec) if p > 1 else Machine(1, spec=spec)
    final, res = run_expression(nbody_expression(p), states, machine)
    return np.concatenate([forces for _res, _vis, forces in final]), res
