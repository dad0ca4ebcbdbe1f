"""Fixed-batch network microbenchmark.

Times one training-mode ``forward``, one ``backward`` and one ``adam_step``
on a seeded 64x24x9 batch, and one inference ``forward`` on a batch the size
of a pinned test fold (1,375 windows), with the default model flags.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from botledger import network

BATCH, STEPS, FEATURES, FOLD = 64, 24, 9, 1375
SECONDS = 2.0


def run(seed: int) -> dict[str, float]:
    """Median milliseconds per call, repeating for about ``SECONDS``."""
    rng = np.random.default_rng(seed)
    x = rng.random((BATCH, STEPS, FEATURES))
    y = (rng.random(BATCH) < 0.5).astype(float)
    x_fold = rng.random((FOLD, STEPS, FEATURES))
    cfg = network.ModelConfig(input_dim=FEATURES, seed=seed)
    params = network.init_params(cfg)
    state = network.init_adam(params, lr=1e-3)
    dropout_rng = np.random.default_rng(seed + 1)

    fwd, bwd, adam, infer = [], [], [], []
    deadline = perf_counter() + SECONDS
    while perf_counter() < deadline or len(infer) < 3:
        for _ in range(10):
            t0 = perf_counter()
            _, trace = network.forward(params, x, cfg, training=True, rng=dropout_rng)
            t1 = perf_counter()
            grads = network.backward(trace, y, params, cfg)
            t2 = perf_counter()
            network.adam_step(params, grads, state)
            t3 = perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
            adam.append(t3 - t2)
        t0 = perf_counter()
        network.forward(params, x_fold, cfg, training=False)
        infer.append(perf_counter() - t0)
    ms = lambda v: statistics.median(v) * 1e3  # noqa: E731
    return {
        "network.micro_fwd_ms": ms(fwd),
        "network.micro_bwd_ms": ms(bwd),
        "network.micro_adam_ms": ms(adam),
        "network.micro_infer_ms": ms(infer),
    }
