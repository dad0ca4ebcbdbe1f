"""Analytic-vs-numeric gradient verification for the recurrent classifier."""

import numpy as np
import pytest

import botledger.network as network
from botledger.network import (
    ModelConfig,
    backward,
    forward,
    init_params,
)
from reference import gradient_check

SMALL = ModelConfig(input_dim=3, hidden_dim=4, dropout_p=0.0, seed=0)


def test_gradient_check_passes_small_net() -> None:
    report = gradient_check(SMALL, seed=0)
    assert report.passed
    assert report.max_relative_error < 1e-4
    assert set(report.per_tensor) == {
        "W_x",
        "W_h",
        "b",
        "bn_gamma",
        "bn_beta",
        "W_out",
        "b_out",
    }
    assert report.entries_checked >= 50


def test_gradient_check_multiple_seeds() -> None:
    cfg = ModelConfig(input_dim=2, hidden_dim=3, dropout_p=0.0, seed=0)
    for seed in range(5):
        report = gradient_check(cfg, seed=seed)
        assert report.passed, f"seed {seed}: {report.per_tensor}"


@pytest.mark.parametrize("window_length", [1, 2])
def test_gradient_check_short_windows(window_length: int) -> None:
    # W_h's gradient pairs each step's gate gradients with the previous
    # step's hidden state: one step has no pair, two steps have one
    cfg = ModelConfig(input_dim=3, hidden_dim=4, dropout_p=0.0)
    report = gradient_check(cfg, seed=2, window_length=window_length, batch_size=3)
    assert report.passed, report.per_tensor
    assert report.max_relative_error < 1e-4


def test_gradient_check_rejects_dropout() -> None:
    with pytest.raises(ValueError):
        gradient_check(ModelConfig(input_dim=2, hidden_dim=3, dropout_p=0.2), seed=0)


def test_gradient_check_rejects_large_net() -> None:
    with pytest.raises(ValueError):
        gradient_check(ModelConfig(input_dim=2, hidden_dim=64, dropout_p=0.0), seed=0)


def test_gradient_check_loose_tolerance_always_passes() -> None:
    report = gradient_check(SMALL, seed=1, tolerance=1.0)
    assert report.passed


def test_corrupted_gradient_fails_on_that_tensor_only(monkeypatch) -> None:
    real_backward = network.backward

    def corrupt(trace, labels, params, cfg):
        grads = real_backward(trace, labels, params, cfg)
        grads.W_h = grads.W_h * 2.0
        return grads

    monkeypatch.setattr(network, "backward", corrupt)
    report = gradient_check(SMALL, seed=0)
    assert not report.passed
    assert report.per_tensor["W_h"] > report.tolerance
    for name, err in report.per_tensor.items():
        if name != "W_h":
            assert err < report.tolerance, name


def test_zero_gradient_fixed_point() -> None:
    # when p == y exactly, every gradient vanishes
    cfg = ModelConfig(input_dim=2, hidden_dim=3, dropout_p=0.0, seed=3)
    params = init_params(cfg)
    batch = np.random.default_rng(0).random((4, 5, 2))
    probs, trace = forward(params, batch, cfg, training=True)
    grads = backward(trace, probs.copy(), params, cfg)
    for name in network.PARAM_NAMES:
        assert np.allclose(np.asarray(getattr(grads, name)), 0.0, atol=1e-15), name


def test_backward_requires_matching_labels() -> None:
    cfg = ModelConfig(input_dim=2, hidden_dim=3, dropout_p=0.0, seed=1)
    params = init_params(cfg)
    batch = np.random.default_rng(2).random((4, 3, 2))
    _, trace = forward(params, batch, cfg, training=True)
    with pytest.raises(ValueError):
        backward(trace, np.array([1.0, 0.0]), params, cfg)


def test_gradients_match_loss_decrease_direction() -> None:
    # one tiny SGD step along -grad reduces the loss
    from botledger.network import bce_loss

    cfg = ModelConfig(input_dim=3, hidden_dim=4, dropout_p=0.0, seed=8)
    params = init_params(cfg)
    batch = np.random.default_rng(3).random((6, 4, 3))
    labels = np.random.default_rng(4).integers(0, 2, 6).astype(float)
    probs, trace = forward(params.copy(), batch, cfg, training=True)
    before = bce_loss(probs, labels)
    grads = backward(trace, labels, params, cfg)

    stepped = params.copy()
    eta = 1e-2
    for name in network.PARAM_NAMES:
        g = getattr(grads, name)
        if name == "b_out":
            stepped.b_out -= eta * g
        else:
            setattr(stepped, name, getattr(stepped, name) - eta * g)
    probs2, _ = forward(stepped.copy(), batch, cfg, training=True)
    after = bce_loss(probs2, labels)
    assert after < before
