"""Shortcut-MLP FER surrogate: standardization, exact backprop, Adam, IOE.

The network maps a standardized frozen-bit vector to a standardized
log-FER. Hidden activations are ReLU; the last layer is linear. Writing
f^0 for the input, layer l+1 computes

    f^{l+1} = F_{l+1}(f^l) + f^{l+1-G}   if l is a positive multiple of G
                                          and l+1 < L,
    f^{l+1} = F_{l+1}(f^l)               otherwise,

so a gap G >= L-1 reduces to a plain composition. All gradients are
exact reverse-mode, including the additive skip branches. There is no
dropout, normalization or input mixing, so training and search evaluate
the same function: none of the three beat the plain network on held-out
IOE (scripts/regulariser_study.py).
"""

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericError

__all__ = [
    "Standardizer",
    "MlpConfig",
    "MlpParams",
    "TrainConfig",
    "IoeReport",
    "fit_standardizer",
    "init_params",
    "forward",
    "backward",
    "output_and_input_gradient",
    "train",
    "evaluate_ioe",
    "constant_predictor_ioe",
]

_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class Standardizer:
    """Kept input coordinates plus centering/scaling statistics.

    Inputs are frozen-bit vectors remapped {0,1} -> {-1,+1}; outputs are
    natural-log FERs.
    """

    kept_indices: np.ndarray
    in_mean: np.ndarray
    in_std: np.ndarray
    out_mean: float
    out_std: float

    def __post_init__(self):
        try:
            kept = np.asarray(self.kept_indices, dtype=np.int64)
        except OverflowError:
            raise InvalidArgument("kept_indices must fit in int64") from None
        self.kept_indices = kept
        self.in_mean = np.asarray(self.in_mean, dtype=np.float64)
        self.in_std = np.asarray(self.in_std, dtype=np.float64)
        if np.any(kept[:1] < 0) or np.any(np.diff(kept) <= 0):
            raise InvalidArgument(
                "kept_indices must be non-negative and strictly increasing")
        stats = [self.in_mean, self.in_std, self.out_mean, self.out_std]
        if not all(np.all(np.isfinite(x)) for x in stats):
            raise InvalidArgument("standardizer means and scales must be "
                                  "finite")
        if np.any(self.in_std <= 0) or self.out_std <= 0:
            raise InvalidArgument("standardizer scales must be positive")

    def signed_bits(self, masks: np.ndarray) -> np.ndarray:
        """Kept coordinates of 0/1 mask rows, remapped to -1/+1."""
        masks = np.atleast_2d(np.asarray(masks))
        kept = self.kept_indices
        if kept.size and kept[-1] >= masks.shape[1]:
            raise InvalidArgument(
                f"model input index {kept[-1]} is out of range for masks of "
                f"N = {masks.shape[1]}")
        return 2.0 * masks[:, kept].astype(np.float64) - 1.0

    def transform_signed(self, signed: np.ndarray) -> np.ndarray:
        return (signed - self.in_mean) / self.in_std

    def transform_inputs(self, masks: np.ndarray) -> np.ndarray:
        return self.transform_signed(self.signed_bits(masks))

    def transform_log_fer(self, log_fer: np.ndarray) -> np.ndarray:
        return (np.asarray(log_fer, dtype=np.float64) - self.out_mean) \
            / self.out_std

    def inverse_log_fer(self, std_out: np.ndarray) -> np.ndarray:
        return np.asarray(std_out, dtype=np.float64) * self.out_std \
            + self.out_mean


@dataclass(frozen=True)
class MlpConfig:
    depth_l: int
    hidden_h: int
    shortcut_g: int

    def __post_init__(self):
        if self.depth_l < 1 or self.hidden_h < 1 or self.shortcut_g < 1:
            raise InvalidArgument("L, H and G must all be >= 1")

    def has_shortcut_into(self, layer_out: int) -> bool:
        """True when f^{layer_out} receives a skip connection."""
        l = layer_out - 1
        return l >= self.shortcut_g and l % self.shortcut_g == 0 \
            and layer_out < self.depth_l


@dataclass
class MlpParams:
    """Trainable tensors: one weight matrix and one bias vector per layer."""

    config: MlpConfig
    weights: list
    biases: list

    def clone(self) -> "MlpParams":
        return copy.deepcopy(self)

    def trainables(self):
        return list(self.weights) + list(self.biases)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidArgument("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidArgument("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate)
                and self.learning_rate > 0):
            raise InvalidArgument("learning_rate must be finite and > 0")
        if self.seed < 0:
            raise InvalidArgument("seed must be >= 0")


@dataclass
class IoeReport:
    average_ioe: float
    worst_ioe: float
    per_sample: np.ndarray
    count: int


def _masks_and_fers(records):
    """Stacked mask bits and FERs of records; every FER must be > 0."""
    if not records:
        raise InvalidArgument("dataset is empty")
    fers = np.array([r.fer_estimate.fer for r in records])
    if np.any(fers <= 0):
        raise InvalidArgument("every record must have FER > 0 (log undefined)")
    return np.stack([r.mask.bits for r in records]), fers


def fit_standardizer(records) -> Standardizer:
    """Fit on (mask bits, FER) pairs; drops constant coordinates."""
    if len(records) < 2:
        raise InvalidArgument("need at least 2 records")
    masks, fers = _masks_and_fers(records)
    kept = np.flatnonzero(masks.min(axis=0) != masks.max(axis=0))
    if kept.size == 0:
        raise InvalidArgument("all input coordinates are constant")
    signed = 2.0 * masks[:, kept].astype(np.float64) - 1.0
    log_fer = np.log(fers)
    out_std = float(log_fer.std())
    if out_std <= 0:
        raise InvalidArgument("log-FER targets are constant")
    return Standardizer(kept, signed.mean(axis=0), signed.std(axis=0),
                        float(log_fer.mean()), out_std)


def _layer_dims(config: MlpConfig, input_dim: int):
    L, H = config.depth_l, config.hidden_h
    ins = [input_dim] + [H] * (L - 1)
    outs = [H] * (L - 1) + [1]
    return list(zip(ins, outs))


def init_params(config: MlpConfig, input_dim: int,
                rng: np.random.Generator) -> MlpParams:
    """Per-layer uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    weights, biases = [], []
    for fan_in, fan_out in _layer_dims(config, input_dim):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(config, weights, biases)


def _forward_cached(config, params, x):
    """Forward pass keeping every layer's input and preactivation."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    L = config.depth_l
    if x.shape[1] != params.weights[0].shape[0]:
        raise InvalidArgument(
            f"input dim {x.shape[1]} != {params.weights[0].shape[0]}")
    acts, zs = [x], []
    for l in range(L):
        z = acts[l] @ params.weights[l] + params.biases[l]
        zs.append(z)
        h = np.maximum(z, 0.0) if l < L - 1 else z
        if config.has_shortcut_into(l + 1):
            h = h + acts[l + 1 - config.shortcut_g]
        acts.append(h)
    return acts[L][:, 0], (acts, zs)


def _backward_cached(config, params, cache, d_out):
    """Reverse pass; returns the input grad and each layer's grad at its
    preactivation."""
    L = config.depth_l
    acts, zs = cache
    d_acts = [np.zeros_like(a) for a in acts]
    d_acts[L] = np.asarray(d_out, dtype=np.float64).reshape(-1, 1)
    deltas = [None] * L
    for l in range(L - 1, -1, -1):
        dh = d_acts[l + 1]
        if config.has_shortcut_into(l + 1):
            d_acts[l + 1 - config.shortcut_g] += dh
        dz = dh if l == L - 1 else dh * (zs[l] > 0)
        deltas[l] = dz
        d_acts[l] += dz @ params.weights[l].T
    return d_acts[0], deltas


def forward(config: MlpConfig, params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Predicted standardized log-FER for a (B, d) batch or single vector."""
    single = np.asarray(x).ndim == 1
    y, _ = _forward_cached(config, params, x)
    return y[0] if single else y


def backward(config: MlpConfig, params: MlpParams, x: np.ndarray,
             target: np.ndarray):
    """Gradients of the mean squared error w.r.t. parameters and input.

    Returns (loss, param_grads, input_grad) where param_grads mirrors
    params.trainables() ordering.
    """
    target = np.atleast_1d(np.asarray(target, dtype=np.float64))
    y, cache = _forward_cached(config, params, x)
    resid = y - target
    d_in, deltas = _backward_cached(config, params, cache,
                                    2.0 * resid / resid.size)
    grads = [a.T @ dz for a, dz in zip(cache[0], deltas)]
    grads += [dz.sum(axis=0) for dz in deltas]
    return float(np.mean(resid ** 2)), grads, d_in


def output_and_input_gradient(config: MlpConfig, params: MlpParams,
                              x: np.ndarray):
    """Network outputs and d(output_i)/d(x_i) per row."""
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y, cache = _forward_cached(config, params, x2)
    d_in, _ = _backward_cached(config, params, cache, np.ones_like(y))
    if np.asarray(x).ndim == 1:
        return y[0], d_in[0]
    return y, d_in


def _ioe_from_log(pred_log_fer: np.ndarray, fers: np.ndarray) -> np.ndarray:
    return np.exp(np.abs(np.log(fers) - pred_log_fer)) - 1.0


def evaluate_ioe(params: MlpParams, standardizer: Standardizer,
                 records) -> IoeReport:
    """Inflation of error of de-standardized predictions on records."""
    masks, fers = _masks_and_fers(records)
    pred = forward(params.config, params,
                   standardizer.transform_inputs(masks))
    ioe = _ioe_from_log(standardizer.inverse_log_fer(pred), fers)
    return IoeReport(float(ioe.mean()), float(ioe.max()), ioe, len(records))


def constant_predictor_ioe(records) -> IoeReport:
    """Chance level: predict the mean log-FER for every record."""
    _, fers = _masks_and_fers(records)
    ioe = _ioe_from_log(np.full(fers.size, np.log(fers).mean()), fers)
    return IoeReport(float(ioe.mean()), float(ioe.max()), ioe, len(records))


class _Adam:
    def __init__(self, tensors, learning_rate: float):
        self.m = [np.zeros_like(t) for t in tensors]
        self.v = [np.zeros_like(t) for t in tensors]
        self.t = 0
        self.learning_rate = learning_rate

    def step(self, tensors, grads):
        self.t += 1
        bias1 = 1.0 - _ADAM_BETA1 ** self.t
        bias2 = 1.0 - _ADAM_BETA2 ** self.t
        for p, g, m, v in zip(tensors, grads, self.m, self.v):
            m *= _ADAM_BETA1
            m += (1 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1 - _ADAM_BETA2) * g * g
            p -= self.learning_rate * (m / bias1) \
                / (np.sqrt(v / bias2) + _ADAM_EPS)


def train(records, split_fraction: float, config: MlpConfig,
          tc: TrainConfig):
    """Shuffle-split, fit the standardizer on the training part, run Adam
    on standardized log-FER MSE, and return the parameters that scored the
    best validation average IOE.

    Returns (MlpParams, Standardizer, IoeReport on validation).
    """
    masks, fers = _masks_and_fers(records)
    if not 0.0 < split_fraction < 1.0:
        raise InvalidArgument("split_fraction must be in (0, 1)")
    rng = np.random.default_rng(tc.seed)
    perm = rng.permutation(len(records))
    n_train = int(round(split_fraction * len(records)))
    if n_train < 2 or n_train >= len(records):
        raise InvalidArgument("split leaves an empty train or validation set")
    train_idx = perm[:n_train]
    val_recs = [records[i] for i in perm[n_train:]]

    std = fit_standardizer([records[i] for i in train_idx])
    X = std.transform_inputs(masks[train_idx])
    y = std.transform_log_fer(np.log(fers[train_idx]))

    params = init_params(config, X.shape[1], rng)
    opt = _Adam(params.trainables(), tc.learning_rate)
    best_params, best_report = None, None

    for _ in range(tc.epochs):
        idx = rng.permutation(X.shape[0])
        for start in range(0, idx.size, tc.batch_size):
            sel = idx[start:start + tc.batch_size]
            _, grads, _ = backward(config, params, X[sel], y[sel])
            if not all(np.all(np.isfinite(g)) for g in grads):
                raise NumericError("non-finite gradient during training")
            opt.step(params.trainables(), grads)
        report = evaluate_ioe(params, std, val_recs)
        if best_report is None or report.average_ioe < best_report.average_ioe:
            best_params, best_report = params.clone(), report

    return best_params, std, best_report
