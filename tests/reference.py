"""Independent oracles that the network tests compare ``botledger`` against.

``cell_step`` is one LSTM step written from the textbook formula: its gates
are ``sigmoid`` and ``np.tanh`` of the unscaled pre-activations, not the
pre-scaled single-``tanh`` arithmetic of ``network.forward``, so a test that
checks ``forward`` against it checks that fused arithmetic.  ``gradient_check``
compares ``network.backward`` against central differences of the loss.

Both stay float64: a central difference with a 1e-5 step needs more digits
than float32's ~1e-7 resolution keeps, so in float32 the check would measure
rounding, not the gradient.  ``network`` is reached through the module, so a
test that monkeypatches ``network.backward`` is seen here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from botledger import network
from botledger.errors import NumericError

TRAINABLE = tuple(name for name, _, role in network._TENSORS if role != "stat")


def cell_step(
    params: network.ModelParams, x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """One LSTM step; accepts single vectors or (B, .) batches.

    Returns ``h_t``, ``c_t`` and the gate activations ``(i, f, g, o)``.
    """
    a_i, a_f, a_g, a_o = np.split(x_t @ params.W_x.T + h_prev @ params.W_h.T + params.b, 4, axis=-1)
    i, f, g, o = network.sigmoid(a_i), network.sigmoid(a_f), np.tanh(a_g), network.sigmoid(a_o)
    c_t = f * c_prev + i * g
    if not np.isfinite(c_t).all():
        raise NumericError("numeric overflow in LSTM cell state")
    h_t = o * np.tanh(c_t)
    return h_t, c_t, (i, f, g, o)


@dataclass(frozen=True)
class GradientCheckReport:
    per_tensor: dict[str, float]
    max_relative_error: float
    entries_checked: int
    tolerance: float
    perturbation: float
    passed: bool


def gradient_check(
    cfg: network.ModelConfig,
    seed: int,
    perturbation: float = 1e-5,
    tolerance: float = 1e-4,
    *,
    window_length: int = 4,
    batch_size: int = 2,
    max_entries_per_tensor: int = 50,
) -> GradientCheckReport:
    """Compare analytic gradients against central differences.

    Uses a small random batch and random labels.  Dropout must be disabled
    (its mask would change under perturbation); networks are kept small so
    every entry of the small tensors gets checked, with large tensors
    subsampled.  Relative error per entry is
    ``|ga - gn| / max(|ga|, |gn|, 1e-8)``.
    """
    if cfg.dropout_p != 0.0:
        raise ValueError("gradient check requires dropout_p = 0")
    if cfg.hidden_dim > 10:
        raise ValueError("gradient check is meant for small nets (hidden_dim <= 10)")
    rng = np.random.default_rng(seed)
    params = network.init_params(cfg)
    batch = rng.random((batch_size, window_length, cfg.input_dim))
    labels = rng.integers(0, 2, size=batch_size).astype(float)

    _, trace = network.forward(params.copy(), batch, cfg, training=True)
    analytic = network.backward(trace, labels, params, cfg)

    def loss_at(p: network.ModelParams) -> float:
        probs, _ = network.forward(p.copy(), batch, cfg, training=True)
        return network.bce_loss(probs, labels)

    per_tensor: dict[str, float] = {}
    checked = 0
    for name in TRAINABLE:
        where, _ = params.layout.views[name]
        size = where.stop - where.start
        if size <= max_entries_per_tensor:
            offsets = list(range(size))
        else:
            offsets = sorted(rng.choice(size, size=max_entries_per_tensor, replace=False).tolist())
        worst = 0.0
        for index in (where.start + k for k in offsets):
            plus = params.copy()
            minus = params.copy()
            plus.flat[index] += perturbation
            minus.flat[index] -= perturbation
            ga_entry = float(analytic.flat[index])
            gn_entry = (loss_at(plus) - loss_at(minus)) / (2.0 * perturbation)
            rel = abs(ga_entry - gn_entry) / max(abs(ga_entry), abs(gn_entry), 1e-8)
            worst = max(worst, rel)
            checked += 1
        per_tensor[name] = worst

    max_err = max(per_tensor.values())
    return GradientCheckReport(
        per_tensor=per_tensor,
        max_relative_error=max_err,
        entries_checked=checked,
        tolerance=tolerance,
        perturbation=perturbation,
        passed=max_err < tolerance,
    )
