#!/usr/bin/env python3
"""Stream plans and the machine pipeline — the task-parallel layer.

A small image-ish processing chain (decode → transform → encode) run
three ways: sequentially, as a stream plan with one thread per stage
(stage overlap), and on the simulated machine with one stage per
processor, where the textbook fill/drain law T ≈ (m + s - 1)·t_stage is
directly observable.

Run:  python examples/pipeline_stream.py
"""

import time

import numpy as np

from repro.machine import PERFECT
from repro.stream import PipelineStage, pipeline_machine, stream_plan


def decode(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((64, 64))


def transform(img):
    return np.fft.irfft2(np.fft.rfft2(img) * 0.5, s=img.shape)


def encode(img):
    return float(np.abs(img).sum())


def main():
    items = list(range(40))
    plan = stream_plan(items).map_seq(decode).map_seq(transform).map_seq(encode)

    print("1. the plan's sequential reference (results always in input order)")
    checksums = list(plan.run_seq())
    print(f"   processed {len(checksums)} frames; first 3: "
          f"{[f'{c:.2f}' for c in checksums[:3]]}")

    print("\n2. one thread per stage: decode | transform | encode")
    start = time.perf_counter()
    piped = list(plan.run())
    t_pipe = time.perf_counter() - start
    start = time.perf_counter()
    seq = [encode(transform(decode(s))) for s in items]
    t_seq = time.perf_counter() - start
    assert piped == seq == checksums
    print(f"   identical results; sequential {t_seq * 1e3:.1f} ms, "
          f"pipelined {t_pipe * 1e3:.1f} ms")

    print("\n3. the fill/drain law on the simulated machine")
    ops = 10_000.0
    t_stage = PERFECT.compute_time(ops)
    for s, m in [(2, 10), (4, 10), (4, 40)]:
        stages = [PipelineStage(lambda x: x, ops=ops)] * s
        _out, res = pipeline_machine(stages, list(range(m)), spec=PERFECT)
        law = (m + s - 1) * t_stage
        print(f"   s={s} stages, m={m:>2} items:  T = {res.makespan * 1e3:7.3f} ms"
              f"   (m+s-1)*t = {law * 1e3:7.3f} ms")


if __name__ == "__main__":
    main()
