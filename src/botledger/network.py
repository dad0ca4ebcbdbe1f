"""From-scratch recurrent binary classifier on top of numpy.

Architecture, in forward order:

* input batch normalization applied to each timestep's feature slice, with
  one shared set of gamma/beta/running statistics across timesteps;
* a single LSTM layer; gate pre-activations are computed as one fused
  ``a = W_x x + W_h h_prev + b`` with the 4H rows blocked in the order
  input, forget, cell, output:

      i = sigmoid(a_i)        f = sigmoid(a_f)
      g = tanh(a_g)           o = sigmoid(a_o)
      c_t = f * c_prev + i * g
      h_t = o * tanh(c_t)

* inverted dropout on the final hidden state during training (kept units
  scaled by 1/(1-p), so inference needs no rescaling);
* a sigmoid readout ``p = sigmoid(W_out h + b_out)``.

The LSTM kernel follows the cuDNN recipe (Appleyard et al. 2016):

* buffers are feature-major, with the batch as the fast axis: a step's
  pre-activations are one (4H, B) slab of ``acts[T, 4H, B]``, and each
  gate is a contiguous (H, B) block of it, as are ``c`` and ``h``;
* ``sigmoid(z)`` is evaluated as ``0.5 * (1 + tanh(z / 2))``, which is exact
  at both extremes and needs no branch on the sign of ``z``;
* the i/f/o rows of the gate pre-activations are pre-scaled by 1/2 (exact,
  being a power of two), so one ``tanh`` call per step over all 4H rows
  yields every gate;
* the input projection ``W_x x + b`` is one stacked product over all T
  timesteps before the time loop, leaving one ``W_h h`` GEMM per step;
* training keeps every step's gates (``acts`` itself), ``c``, ``tanh(c)``
  and ``h`` for backpropagation; inference keeps only the current step of
  ``c``, ``tanh(c)`` and ``h``;
* inference also takes a (G, B, T, D) stack of G batches: every buffer
  gains a G axis after time, each GEMM runs per batch of the stack with
  that batch's own B, and every other op is elementwise, so each batch's
  probabilities are bit for bit those of a forward over it alone;
* ``backward``'s time loop carries only the recurrence through ``dh`` and
  ``dc``, writing every step's gate gradients into one (T, 4H, B) buffer;
  the ``W_x``, ``W_h``, ``b`` and batch-norm gradients are then each one
  stacked operation over all steps;
* finiteness is checked once per batch: a non-finite cell state stays
  non-finite at every later step, so checking the last one suffices.

Training minimizes mean binary cross-entropy plus an L2 penalty on the
weight matrices (never biases or batch-norm parameters), with exact
backpropagation through time and Adam updates.  Everything here is plain
numpy; no framework is involved, which keeps the gradient checker honest.

All tensors live in one float64 vector, ``ModelParams.flat``, laid out once
by ``_TENSORS``; gradients and Adam moments share that layout, and
``model_io`` writes the vector as the ``model.bin`` payload.

Training runs in mixed precision (Micikevicius et al. 2018): ``forward``
computes in the dtype of its batch, float32 for a float32 batch and float64
for anything else.  ``harness.train`` hands it float32 minibatches
(``TRAIN_DTYPE``), and ``harness.predict_probs``, through which every
inference call goes, casts its windows to the same dtype.  A float32 call
casts the weights once, and keeps the batch-norm batch statistics, gate
buffers, ``c``, ``tanh(c)`` and ``h`` in float32; ``backward`` computes its
gradient sums in the trace's dtype.  What float32 rounding would distort
stays float64: the readout ``z``, the probabilities (so ``PROB_CLIP`` keeps
its meaning) and the loss; and the master weights, gradients, Adam moments
and batch-norm running statistics in ``flat``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, NumericError
from .schema import UNIT_OPEN, at_least, check_settings, setting

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PROB_CLIP = 1e-7
TRAIN_DTYPE = np.float32  # compute dtype of training minibatches

# The parameter layout, in model.bin payload order.  Each row is a tensor's
# name, its shape over D = input_dim and H = hidden_dim, and its role:
# "weight" is trained and L2-penalized, "trained" is trained only, and
# "stat" is a batch-norm running statistic that Adam never moves.
_TENSORS = (
    ("W_x", ("4H", "D"), "weight"),
    ("W_h", ("4H", "H"), "weight"),
    ("b", ("4H",), "trained"),
    ("bn_gamma", ("D",), "trained"),
    ("bn_beta", ("D",), "trained"),
    ("bn_running_mean", ("D",), "stat"),
    ("bn_running_var", ("D",), "stat"),
    ("W_out", ("H",), "weight"),
    ("b_out", (), "trained"),
)
PARAM_NAMES = tuple(name for name, _, _ in _TENSORS)
L2_FIELDS = tuple(name for name, _, role in _TENSORS if role == "weight")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters that fix the network's shape and regularization."""

    input_dim: int = setting(allowed=at_least(1))
    hidden_dim: int = setting(32, at_least(1))
    dropout_p: float = setting(0.2, UNIT_OPEN)
    l2_lambda: float = setting(1e-4, at_least(0))
    use_batchnorm: bool = True
    seed: int = setting(0, at_least(0))

    __post_init__ = check_settings


class ParamLayout(NamedTuple):
    """Where each tensor of one model shape lives in ``ModelParams.flat``."""

    input_dim: int
    hidden_dim: int
    size: int
    views: Mapping[str, tuple[slice, tuple[int, ...]]]  # name -> (slice, shape)


@functools.lru_cache(maxsize=None)
def param_layout(input_dim: int, hidden_dim: int) -> ParamLayout:
    """The ``_TENSORS`` table resolved for one (input_dim, hidden_dim)."""
    dims = {"D": input_dim, "H": hidden_dim, "4H": 4 * hidden_dim}
    views = {}
    offset = 0
    for name, symbols, _ in _TENSORS:
        shape = tuple(dims[s] for s in symbols)
        size = math.prod(shape)
        views[name] = (slice(offset, offset + size), shape)
        offset += size
    return ParamLayout(input_dim, hidden_dim, offset, MappingProxyType(views))


class ModelParams:
    """Every tensor of the model in one contiguous float64 vector, ``flat``.

    Each name in ``PARAM_NAMES`` is a view into ``flat`` laid out by
    ``param_layout``: reading ``params.W_h`` gives a view (``b_out`` a
    float), and assigning to a name writes into ``flat``.  Gate blocks in
    ``W_x``/``W_h``/``b`` are stacked input, forget, cell, output along the
    first axis (4H rows).  Gradients and Adam moments use the same class, so
    one whole-vector operation touches every tensor.
    """

    __slots__ = ("flat", "layout")

    def __init__(self, flat: np.ndarray, layout: ParamLayout) -> None:
        """Wrap ``flat`` itself, not a copy, as the tensors of ``layout``."""
        self.flat = flat
        self.layout = layout

    @classmethod
    def zeros_like(cls, params: "ModelParams") -> "ModelParams":
        return cls(np.zeros_like(params.flat), params.layout)

    @property
    def hidden_dim(self) -> int:
        return self.layout.hidden_dim

    @property
    def input_dim(self) -> int:
        return self.layout.input_dim

    def copy(self) -> "ModelParams":
        return ModelParams(self.flat.copy(), self.layout)


def _named_view(name: str) -> property:
    def get(self: ModelParams) -> np.ndarray | float:
        where, shape = self.layout.views[name]
        return self.flat[where].reshape(shape)[()]  # [()] turns the 0-d b_out into a float

    def set(self: ModelParams, value: np.ndarray | float) -> None:
        where, shape = self.layout.views[name]
        value = np.asarray(value, dtype=float)
        if value.shape != shape:
            raise ValueError(f"{name} has shape {shape}, got {value.shape}")
        self.flat[where] = value.ravel()

    return property(get, set, doc=f"``{name}`` as a view into ``flat``.")


for _name in PARAM_NAMES:
    setattr(ModelParams, _name, _named_view(_name))


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    # tanh form: saturates to exactly 0 or 1 at the extremes, no overflow
    arr = np.asarray(z, dtype=float)
    out = 0.5 * (1.0 + np.tanh(0.5 * arr))
    return float(out) if arr.ndim == 0 else out


def _gate_scale(hidden_dim: int) -> np.ndarray:
    """Per-row scale of the 4H pre-activations: 1/2 on i/f/o, 1 on g."""
    scale = np.full(4 * hidden_dim, 0.5)
    scale[2 * hidden_dim : 3 * hidden_dim] = 1.0
    return scale


def _activate_gates(a: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> None:
    """Map pre-activations already multiplied by ``scale`` to [i, f, g, o].

    Overwrites ``a``: ``scale * tanh(a) + shift``, with ``shift = 1 -
    scale``, is ``sigmoid`` on the halved i/f/o blocks and ``tanh`` on the
    g block.
    """
    np.tanh(a, out=a)
    a *= scale
    a += shift


def init_params(cfg: ModelConfig) -> ModelParams:
    """Seeded initialization: uniform(-k, k) weights with k = 1/sqrt(H),
    zero biases except the forget-gate block at 1, identity batch norm."""
    rng = np.random.default_rng(cfg.seed)
    h = cfg.hidden_dim
    k = 1.0 / np.sqrt(h)
    layout = param_layout(cfg.input_dim, h)
    params = ModelParams(np.zeros(layout.size), layout)
    params.W_x = rng.uniform(-k, k, size=params.W_x.shape)
    params.W_h = rng.uniform(-k, k, size=params.W_h.shape)
    params.W_out = rng.uniform(-k, k, size=h)
    params.b_out = rng.uniform(-k, k)
    params.b[h : 2 * h] = 1.0  # forget bias starts open so early gradients flow
    params.bn_gamma[:] = 1.0
    params.bn_running_var[:] = 1.0
    return params


def _feature_major(batch: np.ndarray) -> np.ndarray:
    """A (B, T, D) or (G, B, T, D) batch laid out contiguously as (T, D, B)
    or (T, G, D, B): time first and the batch last."""
    return np.ascontiguousarray(np.moveaxis(batch, (-3, -2), (-1, 0)))


def _bn_apply(batch: np.ndarray, params: ModelParams, training: bool) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a (B, T, D) or, in inference, (G, B, T, D) batch;
    returns (output, pre-affine x_hat), both laid out by ``_feature_major``.

    Statistics pool over every (sample, timestep) row.  Training mode
    normalizes with biased batch statistics and folds them into the running
    estimates, in place in ``params.flat``, as ``running = (1 - BN_MOMENTUM)
    * running + BN_MOMENTUM * batch``; inference uses the running estimates
    unchanged.  The output has the batch's dtype; the running estimates stay
    float64.
    """
    x = _feature_major(batch)
    if training:
        rows = batch.reshape(-1, batch.shape[-1])
        if rows.shape[0] < 2:
            raise DataError("batch too small for batchnorm (need at least 2 rows)")
        # A (D, rows) copy gives each feature one contiguous run, so the
        # moments are fast pairwise sums; the rows keep the batch's order,
        # so a (B, T, D) batch and its (B*T, D) reshape get the same bits.
        cols = np.ascontiguousarray(rows.T)
        mean = cols.mean(axis=1)
        var = cols.var(axis=1)
        params.bn_running_mean = (1.0 - BN_MOMENTUM) * params.bn_running_mean + BN_MOMENTUM * mean
        params.bn_running_var = (1.0 - BN_MOMENTUM) * params.bn_running_var + BN_MOMENTUM * var
    else:
        mean = params.bn_running_mean.astype(x.dtype, copy=False)
        var = params.bn_running_var.astype(x.dtype, copy=False)
    x_hat = (x - mean[:, None]) / np.sqrt(var + BN_EPS)[:, None]
    gamma = params.bn_gamma.astype(x.dtype, copy=False)[:, None]
    beta = params.bn_beta.astype(x.dtype, copy=False)[:, None]
    return gamma * x_hat + beta, x_hat


@dataclass
class ForwardTrace:
    """Intermediate activations saved by a training-mode forward pass.

    Feature-major buffers: time first so the backward loop indexes by step,
    then features, then the batch as the fast axis, so each gate block of a
    step is one contiguous (H, B) slab.
    """

    x_used: np.ndarray  # (T, D, B) inputs as seen by the cell (post-BN if any)
    x_hat: np.ndarray | None  # (T, D, B) pre-affine normalized inputs
    acts: np.ndarray  # (T, 4H, B) gate activations, rows i, f, g, o
    c: np.ndarray  # (T, H, B)
    tanh_c: np.ndarray  # (T, H, B)
    h: np.ndarray  # (T, H, B)
    dropout_mask: np.ndarray | None  # (H, B), already scaled by 1/(1-p)
    h_final: np.ndarray  # (H, B) hidden state fed to the readout
    probs: np.ndarray  # (B,), float64 whatever the buffers' dtype

    @property
    def gates(self) -> tuple[np.ndarray, ...]:
        """i, f, g, o as (T, H, B) views into ``acts``."""
        return tuple(np.split(self.acts, 4, axis=1))


def forward(
    params: ModelParams,
    batch: np.ndarray,
    cfg: ModelConfig,
    *,
    training: bool,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardTrace | None]:
    """Run the network over a (B, T, D) batch, or in inference over a
    (G, B, T, D) stack of G batches of equal shape.

    Returns per-sample bot probabilities, (B,) or (G, B), clipped into the
    open unit interval, and, in training mode, the trace ``backward``
    consumes.  A stacked batch's probabilities equal, bit for bit, those of
    a forward over each batch alone.  Training with dropout_p > 0 requires
    ``rng`` for the mask draw.  A float32 batch is computed in float32 up to
    the float64 readout; any other batch in float64.
    """
    batch = np.asarray(batch)
    dtype = np.float32 if batch.dtype == np.float32 else np.float64
    batch = batch.astype(dtype, copy=False)
    if batch.ndim != 3 and (training or batch.ndim != 4):
        raise ValueError("forward expects a (batch, time, features) array, or in inference a stack of them")
    *lead, n, t_steps, d = batch.shape
    if cfg.input_dim != params.input_dim:
        raise ValueError(f"config input_dim {cfg.input_dim} does not match params input_dim {params.input_dim}")
    if d != params.input_dim:
        raise ValueError(f"input width {d} does not match model input_dim {params.input_dim}")
    if t_steps < 1:
        raise ValueError("batch must contain at least one timestep")
    if not np.isfinite(batch).all():
        raise NumericError("non-finite values in input batch")
    hdim = params.hidden_dim

    # One statistic set per feature, shared across timesteps: batch moments
    # pool over (sample, timestep) rows so training and inference see the
    # same normalization geometry.
    if cfg.use_batchnorm:
        x_used, x_hat = _bn_apply(batch, params, training)
    else:
        x_used = _feature_major(batch)
        x_hat = None

    # Input projection for every timestep in one stacked product; each
    # step's (4H, B) slab is then turned into that step's gate activations
    # in place.  Scaling by 1/2 is exact, so scaling before or after the
    # cast agrees.
    scale = _gate_scale(hdim)
    w_x, w_h = ((w * scale[:, None]).astype(dtype, copy=False) for w in (params.W_x, params.W_h))
    acts = np.matmul(w_x, x_used)
    # Per-row vectors are expanded to full (4H, B) slabs once, so each
    # per-step op runs over one contiguous block instead of 4H short rows.
    rows = np.stack([params.b * scale, scale, 1.0 - scale]).astype(dtype)
    bias, act_scale, act_shift = np.repeat(rows[:, :, None], n, axis=2)
    acts += bias
    # Each step's i, f, g, o views, for a stack too.
    by_gate = np.moveaxis(acts.reshape(t_steps, *lead, 4, hdim, n), -3, 1)

    # Training keeps every step for backward; inference overwrites one slot.
    kept = t_steps if training else 1
    cs, tanh_cs, hs = (np.empty((kept, *lead, hdim, n), dtype) for _ in range(3))
    h = c = np.zeros((*lead, hdim, n), dtype)
    for t in range(t_steps):
        slot, a, (i, f, g, o) = t if training else 0, acts[t], by_gate[t]
        a += w_h @ h
        _activate_gates(a, act_scale, act_shift)
        c = np.multiply(f, c, out=cs[slot])
        c += i * g
        tanh_c = np.tanh(c, out=tanh_cs[slot])
        h = np.multiply(o, tanh_c, out=hs[slot])
    if not np.isfinite(c).all():
        raise NumericError("numeric overflow in LSTM cell state")

    if training and cfg.dropout_p > 0.0:
        if rng is None:
            raise ValueError("training forward with dropout needs an rng")
        keep = 1.0 - cfg.dropout_p
        mask = ((rng.random((n, hdim)) < keep) / keep).astype(dtype).T
        h_final = h * mask
    else:
        mask = None
        h_final = h

    z = params.W_out @ h_final + params.b_out  # float64: W_out is not cast
    probs = np.clip(sigmoid(z), PROB_CLIP, 1.0 - PROB_CLIP)
    if not np.isfinite(probs).all():
        raise NumericError("numeric overflow in readout")

    if not training:
        return probs, None
    trace = ForwardTrace(
        x_used=x_used,
        x_hat=x_hat,
        acts=acts,
        c=cs,
        tanh_c=tanh_cs,
        h=hs,
        dropout_mask=mask,
        h_final=h_final,
        probs=probs,
    )
    return probs, trace


def bce_loss(
    probabilities: np.ndarray,
    labels: Sequence | np.ndarray,
    params: ModelParams | None = None,
    l2_lambda: float = 0.0,
) -> float:
    """Mean binary cross-entropy, plus the L2 penalty when params are given.

    Probabilities are clipped to [1e-7, 1 - 1e-7] before the logs purely as
    a numeric guard.
    """
    p = np.clip(np.asarray(probabilities, dtype=float), PROB_CLIP, 1.0 - PROB_CLIP)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape:
        raise ValueError("probabilities and labels must have the same shape")
    data = float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))
    if l2_lambda and params is not None:
        data += l2_lambda * sum(float(np.sum(getattr(params, f) ** 2)) for f in L2_FIELDS)
    return data


def backward(
    trace: ForwardTrace,
    labels: Sequence | np.ndarray,
    params: ModelParams,
    cfg: ModelConfig,
) -> ModelParams:
    """Exact gradients of ``bce_loss`` via backpropagation through time.

    The time loop runs only the recurrence through ``c`` and ``h``: it fills
    one (T, 4H, B) buffer of gate pre-activation gradients, and every weight
    gradient is then one stacked product over all steps.  Batch-norm sits
    on the input side, so its batch statistics do not depend on any
    trainable tensor; only gamma/beta need gradients, taken from the saved
    ``x_hat``.  The work runs in the trace's dtype; the float64 gradients
    share the params' layout, with zeros in the running-statistic slots.
    """
    y = np.asarray(labels, dtype=float)
    t_steps, hdim, n = trace.h.shape
    dtype = trace.h.dtype
    if y.shape != (n,):
        raise ValueError("labels must match the traced batch size")

    grads = ModelParams.zeros_like(params)

    # d loss / d z for p = sigmoid(z) under mean BCE
    dz = (trace.probs - y) / n
    grads.W_out = trace.h_final @ dz
    grads.b_out = float(dz.sum())

    dh = np.outer(params.W_out, dz).astype(dtype)
    if trace.dropout_mask is not None:
        dh *= trace.dropout_mask

    # Each gate's pre-activation gradient is dc (rows i, f, g) or dh (rows
    # o) times a factor that depends on the trace alone: the factors are
    # filled for all steps at once, and the loop scales them in place.
    i, f, g, o = trace.gates
    tanh_c = trace.tanh_c
    da = np.subtract(1.0, trace.acts)
    da *= trace.acts  # sigmoid' = s (1 - s) on the i, f, o rows
    da_i, da_f, da_g, da_o = np.split(da, 4, axis=1)
    da_i *= g
    da_f[0] = 0.0  # c_prev is zero at the first step
    da_f[1:] *= trace.c[:-1]
    da_o *= tanh_c
    np.multiply(g, g, out=da_g)  # tanh' = 1 - g^2 on the g rows
    np.subtract(1.0, da_g, out=da_g)
    da_g *= i
    dh_dc = np.multiply(tanh_c, tanh_c)  # dh/dc = o (1 - tanh(c)^2)
    np.subtract(1.0, dh_dc, out=dh_dc)
    dh_dc *= o

    w_x, w_h = (w.astype(dtype, copy=False) for w in (params.W_x, params.W_h))
    by_gate = da.reshape(t_steps, 4, hdim, n)
    dc = np.zeros((hdim, n), dtype)
    for t in range(t_steps - 1, -1, -1):
        dc += np.multiply(dh, dh_dc[t], out=dh_dc[t])
        by_gate[t, :3] *= dc
        by_gate[t, 3] *= dh
        dc *= f[t]
        dh = w_h.T @ da[t]

    # Sums over (step, sample) take the steps first: adding whole (., B)
    # slabs, then one contiguous run per row.
    grads.W_x = np.matmul(da, trace.x_used.transpose(0, 2, 1)).sum(axis=0)
    grads.W_h = np.matmul(da[1:], trace.h[:-1].transpose(0, 2, 1)).sum(axis=0)
    grads.b = da.sum(axis=0).sum(axis=1)
    if cfg.use_batchnorm:
        dx_bn = np.matmul(w_x.T, da)  # gradient w.r.t. the BN output
        grads.bn_gamma = (dx_bn * trace.x_hat).sum(axis=0).sum(axis=1)
        grads.bn_beta = dx_bn.sum(axis=0).sum(axis=1)
    if cfg.l2_lambda:
        for name in L2_FIELDS:
            grad = getattr(grads, name)
            grad += 2.0 * cfg.l2_lambda * getattr(params, name)

    if not np.isfinite(grads.flat).all():
        raise NumericError("numeric overflow in gradients")
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators, laid out like the params, plus the step count."""

    first: ModelParams
    second: ModelParams
    step_count: int
    lr: float


def init_adam(params: ModelParams, lr: float = 1e-3) -> AdamState:
    return AdamState(
        first=ModelParams.zeros_like(params),
        second=ModelParams.zeros_like(params),
        step_count=0,
        lr=lr,
    )


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update of the whole parameter vector.

    Adam is elementwise, so one pass over ``flat`` equals one pass per
    tensor.  The batch-norm running statistics have zero gradient and zero
    moments, so their update is exactly 0.0 and they pass through bit for
    bit.  Inputs are left unmodified: the new params and moments own fresh
    vectors, which is what lets ``_bn_apply`` update running statistics in
    place.
    """
    t = state.step_count + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    g = grads.flat
    m = ADAM_BETA1 * state.first.flat + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.second.flat + (1.0 - ADAM_BETA2) * np.square(g)
    update = state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    layout = params.layout
    new_state = replace(
        state,
        first=ModelParams(m, layout),
        second=ModelParams(v, layout),
        step_count=t,
    )
    return ModelParams(params.flat - update, layout), new_state
