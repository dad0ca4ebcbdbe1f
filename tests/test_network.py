import math

import numpy as np
import pytest

from botledger.errors import DataError, NumericError
from botledger.network import (
    BN_EPS,
    PROB_CLIP,
    ModelConfig,
    ModelParams,
    _bn_apply,
    adam_step,
    backward,
    bce_loss,
    forward,
    init_adam,
    init_params,
    param_layout,
    sigmoid,
)
from reference import TRAINABLE, cell_step


def _zero_params(input_dim: int, hidden_dim: int) -> ModelParams:
    layout = param_layout(input_dim, hidden_dim)
    params = ModelParams(np.zeros(layout.size), layout)
    params.bn_gamma[:] = 1.0
    params.bn_running_var[:] = 1.0
    return params


# --- initialization ---------------------------------------------------------


def test_init_shapes_and_forget_bias() -> None:
    cfg = ModelConfig(input_dim=9, hidden_dim=32)
    p = init_params(cfg)
    assert p.W_x.shape == (128, 9)
    assert p.W_h.shape == (128, 32)
    assert p.b.shape == (128,)
    assert p.W_out.shape == (32,)
    assert p.b[32:64].tolist() == [1.0] * 32  # forget block
    assert p.b[:32].tolist() == [0.0] * 32
    assert p.b[64:].tolist() == [0.0] * 64
    assert p.bn_gamma.tolist() == [1.0] * 9
    assert p.bn_running_var.tolist() == [1.0] * 9
    k = 1.0 / math.sqrt(32)
    assert abs(p.W_x).max() <= k and abs(p.W_h).max() <= k


def test_init_is_seed_deterministic() -> None:
    cfg = ModelConfig(input_dim=4, hidden_dim=8, seed=123)
    a, b = init_params(cfg), init_params(cfg)
    assert np.array_equal(a.W_x, b.W_x)
    assert np.array_equal(a.W_h, b.W_h)
    assert a.b_out == b.b_out
    c = init_params(ModelConfig(input_dim=4, hidden_dim=8, seed=124))
    assert not np.array_equal(a.W_x, c.W_x)


def test_model_config_validation() -> None:
    with pytest.raises(ValueError):
        ModelConfig(input_dim=0, hidden_dim=4)
    with pytest.raises(ValueError):
        ModelConfig(input_dim=4, hidden_dim=4, dropout_p=1.0)
    with pytest.raises(ValueError):
        ModelConfig(input_dim=4, hidden_dim=4, l2_lambda=-1.0)


# --- parameter layout ---------------------------------------------------------


def test_named_views_write_through_to_flat() -> None:
    p = init_params(ModelConfig(input_dim=2, hidden_dim=3, seed=0))
    names = (
        "W_x", "W_h", "b", "bn_gamma", "bn_beta", "bn_running_mean", "bn_running_var", "W_out"
    )
    # flat holds the tensors in model.bin payload order, b_out last
    assert np.array_equal(
        p.flat, np.concatenate([getattr(p, n).ravel() for n in names] + [[p.b_out]])
    )
    assert p.flat.shape == (12 * 2 + 12 * 3 + 12 + 4 * 2 + 3 + 1,)

    # name -> flat: assignment and in-place edits through a view
    p.W_h = np.full((12, 3), 7.0)
    p.b_out = 0.25
    p.W_out[:] = -1.0
    assert p.flat[24:60].tolist() == [7.0] * 36
    assert p.flat[-4:].tolist() == [-1.0, -1.0, -1.0, 0.25]

    # flat -> name
    p.flat[:] = np.arange(p.flat.size)
    assert p.W_x.tolist()[1] == [2.0, 3.0]
    assert p.bn_gamma.tolist() == [72.0, 73.0]
    assert p.b_out == 83.0 and isinstance(p.b_out, float)

    with pytest.raises(ValueError):
        p.W_x = np.zeros((2, 12))


def test_adam_leaves_running_stats_bitwise_unchanged() -> None:
    cfg = ModelConfig(input_dim=3, hidden_dim=4, dropout_p=0.0, seed=5)
    params = init_params(cfg)
    params.bn_running_mean = np.array([0.1, -0.0, 3e-300])
    params.bn_running_var = np.array([2.0, 1e-12, np.pi])
    mean, var = params.bn_running_mean.tobytes(), params.bn_running_var.tobytes()
    batch = np.random.default_rng(6).random((4, 5, 3))
    state = init_adam(params, lr=0.1)
    stepped = params
    for _ in range(3):
        _, trace = forward(stepped.copy(), batch, cfg, training=True)
        grads = backward(trace, np.array([1.0, 0.0, 1.0, 0.0]), stepped, cfg)
        stepped, state = adam_step(stepped, grads, state)
    assert stepped.bn_running_mean.tobytes() == mean
    assert stepped.bn_running_var.tobytes() == var
    assert not np.array_equal(stepped.W_x, params.W_x)


# --- cell step ---------------------------------------------------------------


def test_cell_step_all_zero_params() -> None:
    p = _zero_params(3, 2)
    h, c, (i, f, g, o) = cell_step(p, np.zeros(3), np.zeros(2), np.zeros(2))
    assert h.tolist() == [0.0, 0.0]
    assert c.tolist() == [0.0, 0.0]
    # sigmoid(0) gates, tanh(0) cell candidate
    assert i.tolist() == [0.5, 0.5]
    assert f.tolist() == [0.5, 0.5]
    assert o.tolist() == [0.5, 0.5]
    assert g.tolist() == [0.0, 0.0]


def test_cell_step_forget_bias_carry() -> None:
    # zero weights, forget bias 1: c_t = sigmoid(1) * c_prev, h_t = 0.5 tanh(c_t)
    p = _zero_params(1, 1)
    p.b[1] = 1.0
    h, c, _ = cell_step(p, np.zeros(1), np.zeros(1), np.ones(1))
    assert c[0] == pytest.approx(0.7310585786300049, abs=1e-12)
    assert h[0] == pytest.approx(0.3118562749129378, abs=1e-12)


def test_cell_step_batched_matches_vector() -> None:
    rng = np.random.default_rng(3)
    cfg = ModelConfig(input_dim=4, hidden_dim=5, seed=9)
    p = init_params(cfg)
    x = rng.normal(size=(6, 4))
    h_prev = rng.normal(size=(6, 5))
    c_prev = rng.normal(size=(6, 5))
    h_b, c_b, _ = cell_step(p, x, h_prev, c_prev)
    for row in range(6):
        h_1, c_1, _ = cell_step(p, x[row], h_prev[row], c_prev[row])
        assert np.allclose(h_b[row], h_1, atol=1e-14)
        assert np.allclose(c_b[row], c_1, atol=1e-14)


def test_sigmoid_extremes_and_scalar() -> None:
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == 0.0
    v = sigmoid(np.array([-1.0, 0.0, 1.0]))
    assert v[1] == 0.5 and v[0] == pytest.approx(1.0 - v[2], abs=1e-15)


def _two_branch_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_two_branch_formula() -> None:
    z = np.concatenate([np.linspace(-50.0, 50.0, 4001), [-1000.0, -40.0, 40.0, 1000.0]])
    assert np.abs(sigmoid(z) - _two_branch_sigmoid(z)).max() <= 1e-15
    zero_d = sigmoid(np.array(-3.25))
    assert isinstance(zero_d, float)
    assert abs(zero_d - _two_branch_sigmoid(np.array([-3.25]))[0]) <= 1e-15


# --- batch norm ---------------------------------------------------------------


def batchnorm_forward(batch: np.ndarray, params: ModelParams, training: bool) -> np.ndarray:
    """``_bn_apply`` over one (B, D) matrix, as B windows of one step, returned batch-major."""
    return _bn_apply(batch[:, None, :], params, training)[0][0].T


def test_batchnorm_training_two_point_batch() -> None:
    p = _zero_params(1, 1)
    out = batchnorm_forward(np.array([[2.0], [4.0]]), p, training=True)
    expected = 1.0 / math.sqrt(1.0 + BN_EPS)  # (4-3)/sqrt(var+eps), var=1
    assert out[0, 0] == pytest.approx(-expected, abs=1e-12)
    assert out[1, 0] == pytest.approx(expected, abs=1e-12)
    assert abs(out[1, 0]) == pytest.approx(0.999995, abs=1e-6)


def test_batchnorm_inference_identity_with_unit_stats() -> None:
    p = _zero_params(3, 1)
    x = np.array([[0.5, -1.0, 2.0]])
    out = batchnorm_forward(x, p, training=False)
    assert np.allclose(out, x / math.sqrt(1.0 + BN_EPS), atol=1e-12)


def test_batchnorm_gamma_beta_affine() -> None:
    p = _zero_params(1, 1)
    p.bn_gamma = np.array([0.0])
    p.bn_beta = np.array([5.0])
    out = batchnorm_forward(np.array([[2.0], [4.0]]), p, training=True)
    assert out.tolist() == [[5.0], [5.0]]


def test_batchnorm_running_stat_update() -> None:
    p = _zero_params(1, 1)
    batchnorm_forward(np.array([[2.0], [4.0]]), p, training=True)
    # running = 0.9 * old + 0.1 * batch; batch mean 3, biased var 1
    assert p.bn_running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 3.0, abs=1e-12)
    assert p.bn_running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0, abs=1e-12)


def test_batchnorm_converged_running_stats_map_mean_to_beta() -> None:
    rng = np.random.default_rng(0)
    p = _zero_params(4, 1)
    p.bn_beta = np.array([0.5, -0.5, 0.0, 2.0])
    batch = rng.normal(size=(16, 4)) * 3.0 + 1.0
    for _ in range(300):
        batchnorm_forward(batch, p, training=True)
    out = batchnorm_forward(batch.mean(axis=0, keepdims=True), p, training=False)
    assert np.allclose(out[0], p.bn_beta, atol=1e-4)


def test_batchnorm_singleton_batch_is_fatal() -> None:
    p = _zero_params(2, 1)
    with pytest.raises(DataError):
        batchnorm_forward(np.array([[1.0, 2.0]]), p, training=True)


# --- forward ------------------------------------------------------------------


def test_forward_zero_head_gives_half() -> None:
    cfg = ModelConfig(input_dim=3, hidden_dim=4, dropout_p=0.0, use_batchnorm=False)
    p = _zero_params(3, 4)
    probs, trace = forward(p, np.random.default_rng(0).random((5, 6, 3)), cfg, training=True)
    assert np.allclose(probs, 0.5, atol=1e-15)
    assert trace is not None and trace.h.shape == (6, 4, 5)


def test_forward_training_inference_agree_without_dropout() -> None:
    cfg = ModelConfig(input_dim=3, hidden_dim=4, dropout_p=0.0, use_batchnorm=False, seed=2)
    p = init_params(cfg)
    batch = np.random.default_rng(1).random((4, 5, 3))
    p_train, _ = forward(p, batch, cfg, training=True)
    p_infer, trace = forward(p, batch, cfg, training=False)
    assert np.array_equal(p_train, p_infer)
    assert trace is None


def test_forward_hand_rolled_scalar_chain() -> None:
    # 1-dim input, 1-dim hidden, no BN: verify T=2 recurrence step by step
    cfg = ModelConfig(input_dim=1, hidden_dim=1, dropout_p=0.0, use_batchnorm=False)
    p = _zero_params(1, 1)
    p.W_x = np.array([[0.3], [0.5], [-0.4], [0.8]])  # i, f, g, o input weights
    p.W_h = np.array([[0.1], [-0.2], [0.6], [0.7]])
    p.b = np.array([0.05, 1.0, -0.1, 0.2])
    p.W_out = np.array([1.5])
    p.b_out = -0.3
    x = np.array([[[0.9], [-0.4]]])

    def sig(v: float) -> float:
        return 1.0 / (1.0 + math.exp(-v))

    h = c = 0.0
    for t in range(2):
        xt = x[0, t, 0]
        i = sig(0.3 * xt + 0.1 * h + 0.05)
        f = sig(0.5 * xt + -0.2 * h + 1.0)
        g = math.tanh(-0.4 * xt + 0.6 * h + -0.1)
        o = sig(0.8 * xt + 0.7 * h + 0.2)
        c = f * c + i * g
        h = o * math.tanh(c)
    expected = sig(1.5 * h - 0.3)
    probs, _ = forward(p, x, cfg, training=False)
    assert probs[0] == pytest.approx(expected, abs=1e-12)


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("use_batchnorm", [True, False])
@pytest.mark.parametrize("training", [True, False])
def test_forward_matches_cell_step_reference(use_batchnorm: bool, training: bool) -> None:
    cfg = ModelConfig(input_dim=4, hidden_dim=6, dropout_p=0.0, use_batchnorm=use_batchnorm, seed=3)
    params = init_params(cfg)
    params.bn_running_mean = np.array([0.2, 0.5, -0.1, 0.4])
    params.bn_running_var = np.array([0.5, 2.0, 1.0, 0.1])
    batch = np.random.default_rng(4).normal(size=(5, 7, 4)) * 2.0

    # reference: batch norm over all (sample, step) rows, then cell_step per step
    ref = params.copy()
    x = batch.reshape(35, 4)
    if use_batchnorm:
        x = batchnorm_forward(x, ref, training=training)
    x = x.reshape(5, 7, 4)
    h = c = np.zeros((5, 6))
    hs, cs, gates = [], [], []
    for t in range(7):
        h, c, gate = cell_step(ref, x[:, t], h, c)
        hs.append(h)
        cs.append(c)
        gates.append(gate)
    want = np.clip(sigmoid(h @ ref.W_out + ref.b_out), PROB_CLIP, 1.0 - PROB_CLIP)

    got_params = params.copy()
    probs, trace = forward(got_params, batch, cfg, training=training)
    assert _rel_err(probs, want) <= 1e-12
    assert np.array_equal(got_params.bn_running_mean, ref.bn_running_mean)
    assert np.array_equal(got_params.bn_running_var, ref.bn_running_var)
    if not training:
        assert trace is None
        return
    assert _rel_err(trace.x_used, x.transpose(1, 2, 0)) <= 1e-12
    assert _rel_err(trace.h, np.stack(hs).transpose(0, 2, 1)) <= 1e-12
    assert _rel_err(trace.c, np.stack(cs).transpose(0, 2, 1)) <= 1e-12
    assert _rel_err(trace.tanh_c, np.tanh(np.stack(cs)).transpose(0, 2, 1)) <= 1e-12
    for got_gate, want_gate in zip(trace.gates, zip(*gates)):
        assert _rel_err(got_gate, np.stack(want_gate).transpose(0, 2, 1)) <= 1e-12
    assert np.array_equal(trace.h_final, trace.h[-1])


@pytest.mark.parametrize("use_batchnorm", [True, False])
def test_inference_is_batch_independent(use_batchnorm: bool) -> None:
    # the batch is the fast axis of every kernel buffer: a window's
    # probability must not depend on the windows that share its forward
    cfg = ModelConfig(input_dim=4, hidden_dim=6, dropout_p=0.2, use_batchnorm=use_batchnorm, seed=3)
    params = init_params(cfg)
    params.bn_running_mean = np.array([0.2, 0.5, -0.1, 0.4])
    params.bn_running_var = np.array([0.5, 2.0, 1.0, 0.1])
    batch = np.random.default_rng(8).normal(size=(37, 7, 4))
    whole, _ = forward(params, batch, cfg, training=False)
    alone = np.concatenate([forward(params, window[None], cfg, training=False)[0] for window in batch])
    parts = np.split(batch, [5, 21])
    split = np.concatenate([forward(params, part, cfg, training=False)[0] for part in parts])
    for probs in (alone, split):
        assert (np.abs(probs - whole) <= 1e-12 * whole).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("use_batchnorm", [True, False])
def test_inference_over_a_stack_equals_each_batch_alone(use_batchnorm: bool, dtype) -> None:
    # each GEMM runs per batch of the stack, with that batch's own B, so the bits do not move
    cfg = ModelConfig(input_dim=4, hidden_dim=6, use_batchnorm=use_batchnorm, seed=3)
    params = init_params(cfg)
    params.bn_running_mean = np.array([0.2, 0.5, -0.1, 0.4])
    params.bn_running_var = np.array([0.5, 2.0, 1.0, 0.1])
    stack = np.random.default_rng(9).normal(size=(3, 5, 7, 4)).astype(dtype)
    probs, trace = forward(params, stack, cfg, training=False)
    assert probs.shape == (3, 5) and probs.dtype == np.float64 and trace is None
    for stacked, batch in zip(probs, stack):
        assert np.array_equal(stacked, forward(params, batch, cfg, training=False)[0])
    with pytest.raises(ValueError, match="stack"):
        forward(params, stack, cfg, training=True, rng=np.random.default_rng(0))


# --- mixed precision ----------------------------------------------------------


@pytest.mark.parametrize("use_batchnorm", [True, False])
def test_float32_batch_gives_float32_buffers_and_float64_probs(use_batchnorm: bool) -> None:
    cfg = ModelConfig(input_dim=4, hidden_dim=6, dropout_p=0.2, use_batchnorm=use_batchnorm, seed=3)
    params = init_params(cfg)
    batch = np.random.default_rng(4).random((5, 7, 4))
    probs, trace = forward(params, batch.astype(np.float32), cfg, training=True, rng=np.random.default_rng(0))
    buffers = [trace.x_used, trace.c, trace.tanh_c, trace.h, trace.dropout_mask, trace.h_final, *trace.gates]
    if use_batchnorm:
        buffers.append(trace.x_hat)
    assert [b.dtype for b in buffers] == [np.float32] * len(buffers)
    assert probs.dtype == np.float64 and trace.probs.dtype == np.float64
    assert params.flat.dtype == np.float64  # running statistics stay float64

    # inference on a float32 batch agrees with the float64 path to float32 precision
    want, _ = forward(params, batch, cfg, training=False)
    got, _ = forward(params, batch.astype(np.float32), cfg, training=False)
    assert got.dtype == np.float64
    assert _rel_err(got, want) <= 1e-5


@pytest.mark.parametrize("use_batchnorm", [True, False])
def test_float32_backward_matches_float64_gradients(use_batchnorm: bool) -> None:
    cfg = ModelConfig(input_dim=9, hidden_dim=32, dropout_p=0.2, use_batchnorm=use_batchnorm, seed=5)
    params = init_params(cfg)
    rng = np.random.default_rng(6)
    batch = rng.random((64, 24, 9))
    labels = (rng.random(64) < 0.5).astype(float)
    grads = {}
    for dtype in (np.float64, np.float32):
        _, trace = forward(params.copy(), batch.astype(dtype), cfg, training=True, rng=np.random.default_rng(7))
        grads[dtype] = backward(trace, labels, params, cfg)
    assert grads[np.float32].flat.dtype == np.float64
    for name in TRAINABLE:
        got, want = (np.atleast_1d(getattr(grads[dtype], name)) for dtype in (np.float32, np.float64))
        assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max(), name  # zero stays zero


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("training", [True, False])
def test_forward_non_finite_input_is_numeric_error(bad: float, training: bool) -> None:
    cfg = ModelConfig(input_dim=3, hidden_dim=4, dropout_p=0.0, seed=1)
    batch = np.random.default_rng(0).random((4, 5, 3))
    batch[2, 3, 1] = bad
    with pytest.raises(NumericError):
        forward(init_params(cfg), batch, cfg, training=training)


def test_forward_output_range_random_nets() -> None:
    rng = np.random.default_rng(11)
    for seed in range(5):
        cfg = ModelConfig(input_dim=4, hidden_dim=6, dropout_p=0.0, seed=seed)
        p = init_params(cfg)
        probs, _ = forward(p, rng.random((8, 5, 4)), cfg, training=False)
        assert ((probs > 0.0) & (probs < 1.0)).all()


def test_forward_dimension_mismatch() -> None:
    cfg = ModelConfig(input_dim=3, hidden_dim=4)
    p = init_params(cfg)
    with pytest.raises(ValueError):
        forward(p, np.zeros((2, 5, 7)), cfg, training=False)
    with pytest.raises(ValueError):
        forward(p, np.zeros((2, 5)), cfg, training=False)


def test_forward_width_errors_name_the_dimension_that_disagrees() -> None:
    params = init_params(ModelConfig(input_dim=9))
    with pytest.raises(ValueError, match="^config input_dim 8 does not match params input_dim 9$"):
        forward(params, np.zeros((2, 4, 9)), ModelConfig(input_dim=8), training=False)
    with pytest.raises(ValueError, match="^input width 7 does not match model input_dim 9$"):
        forward(params, np.zeros((2, 4, 7)), ModelConfig(input_dim=9), training=False)


def test_forward_dropout_needs_rng() -> None:
    cfg = ModelConfig(input_dim=2, hidden_dim=3, dropout_p=0.5)
    p = init_params(cfg)
    with pytest.raises(ValueError):
        forward(p, np.zeros((4, 3, 2)), cfg, training=True)


def test_dropout_mask_scaling_and_expectation() -> None:
    cfg = ModelConfig(input_dim=2, hidden_dim=8, dropout_p=0.3, use_batchnorm=False, seed=5)
    no_drop = ModelConfig(input_dim=2, hidden_dim=8, dropout_p=0.0, use_batchnorm=False, seed=5)
    p = init_params(cfg)
    batch = np.random.default_rng(2).random((4, 3, 2))
    _, clean = forward(p, batch, no_drop, training=True)
    expected = clean.h_final.sum(axis=0)  # pre-dropout final hidden state

    rng = np.random.default_rng(77)
    masked_sum = np.zeros(4)
    trials = 8000
    masks = []
    for _ in range(trials):
        _, trace = forward(p, batch, cfg, training=True, rng=rng)
        masked_sum += trace.h_final.sum(axis=0)
        masks.append(trace.dropout_mask)
    # inverted dropout: mask entries are exactly 0 or 1/(1-p)
    uniq = np.unique(np.stack(masks))
    assert set(np.round(uniq, 12)) <= {0.0, round(1.0 / 0.7, 12)}
    # kept fraction matches 1-p and the masked state is unbiased within 2%
    keep_rate = float(np.mean(np.stack(masks) > 0))
    assert keep_rate == pytest.approx(0.7, abs=0.01)
    assert np.allclose(masked_sum / trials, expected, rtol=0.02, atol=0.02)


def test_forward_seeded_dropout_is_deterministic() -> None:
    cfg = ModelConfig(input_dim=2, hidden_dim=4, dropout_p=0.4, use_batchnorm=False, seed=5)
    p = init_params(cfg)
    batch = np.random.default_rng(2).random((6, 3, 2))
    a, _ = forward(p, batch, cfg, training=True, rng=np.random.default_rng(9))
    b, _ = forward(p, batch, cfg, training=True, rng=np.random.default_rng(9))
    assert np.array_equal(a, b)


# --- loss ---------------------------------------------------------------------


def test_bce_known_values() -> None:
    assert bce_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(
        0.6931471805599453, abs=1e-12
    )
    assert bce_loss(np.array([0.9, 0.2]), np.array([1.0, 0.0])) == pytest.approx(
        0.164252033486018, abs=1e-12
    )
    # confident and correct: tiny loss
    assert bce_loss(np.array([1.0 - 1e-7]), np.array([1.0])) < 1e-6


def test_bce_clipping_keeps_loss_finite() -> None:
    assert math.isfinite(bce_loss(np.array([0.0]), np.array([1.0])))
    assert math.isfinite(bce_loss(np.array([1.0]), np.array([0.0])))
    assert bce_loss(np.array([0.0]), np.array([1.0])) == pytest.approx(-math.log(1e-7))


def test_bce_l2_term() -> None:
    p = _zero_params(2, 2)
    p.W_x = np.full((8, 2), 2.0)
    p.W_h = np.zeros((8, 2))
    p.W_out = np.array([3.0, 0.0])
    lam = 0.01
    base = bce_loss(np.array([0.5]), np.array([1.0]))
    full = bce_loss(np.array([0.5]), np.array([1.0]), p, lam)
    assert full - base == pytest.approx(lam * (16 * 4.0 + 9.0), abs=1e-12)


def test_bce_accepts_label_objects() -> None:
    from botledger.schema import Label

    v = bce_loss(np.array([0.5, 0.5]), [Label.BOT, Label.NORMAL])
    assert v == pytest.approx(0.6931471805599453, abs=1e-12)


# --- adam ----------------------------------------------------------------------


def test_adam_zero_gradient_is_identity() -> None:
    cfg = ModelConfig(input_dim=2, hidden_dim=3, seed=0)
    p = init_params(cfg)
    state = init_adam(p, lr=1e-3)
    zero = ModelParams.zeros_like(p)
    p2, state2 = adam_step(p, zero, state)
    assert state2.step_count == 1
    assert np.array_equal(p2.W_x, p.W_x)
    assert np.array_equal(p2.W_out, p.W_out)
    assert p2.b_out == p.b_out


def test_adam_first_step_magnitude() -> None:
    # with bias correction the first update is lr * g / (|g| + eps)
    p = _zero_params(1, 1)
    grads = ModelParams.zeros_like(p)
    grads.b_out = 2.0
    state = init_adam(p, lr=1e-3)
    p2, _ = adam_step(p, grads, state)
    assert p2.b_out == pytest.approx(-1e-3, rel=1e-6)


def test_adam_is_pure_and_deterministic() -> None:
    cfg = ModelConfig(input_dim=2, hidden_dim=3, seed=1)
    p = init_params(cfg)
    grads = ModelParams.zeros_like(p)
    grads.W_x = np.ones_like(p.W_x) * 0.1
    grads.b_out = -0.2
    state = init_adam(p)
    w_before = p.W_x.copy()
    a_params, a_state = adam_step(p, grads, state)
    b_params, b_state = adam_step(p, grads, state)
    assert np.array_equal(p.W_x, w_before)  # input untouched
    assert state.step_count == 0
    assert np.array_equal(a_params.W_x, b_params.W_x)
    assert a_params.b_out == b_params.b_out
    assert a_state.step_count == b_state.step_count == 1
    assert np.array_equal(a_state.first.W_x, b_state.first.W_x)


def test_adam_moment_recursions() -> None:
    p = _zero_params(1, 1)
    grads = ModelParams.zeros_like(p)
    grads.b_out = 1.0
    state = init_adam(p, lr=0.1)  # beta1 0.9, beta2 0.999
    _, s1 = adam_step(p, grads, state)
    assert s1.first.b_out == pytest.approx(0.1, abs=1e-15)  # (1-beta1)*g
    assert s1.second.b_out == pytest.approx(0.001, abs=1e-15)
    _, s2 = adam_step(p, grads, s1)
    assert s2.first.b_out == pytest.approx(0.9 * 0.1 + 0.1, abs=1e-15)
    assert s2.second.b_out == pytest.approx(0.999 * 0.001 + 0.001, abs=1e-15)
