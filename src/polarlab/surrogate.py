"""Shortcut-MLP FER surrogate: standardization, exact backprop, Adam, IOE.

The network maps a standardized frozen-bit vector to a standardized
log-FER. Hidden activations are ReLU; the last layer is linear. Writing
f^0 for the input, layer l+1 computes

    f^{l+1} = F_{l+1}(f^l) + f^{l+1-G}   if l is a positive multiple of G
                                          and l+1 < L,
    f^{l+1} = F_{l+1}(f^l)               otherwise,

so a gap G >= L-1 reduces to a plain composition. All gradients are
exact reverse-mode, including the additive skip branches.
"""

import copy
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

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9  # running-statistics decay per training batch
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
        self.kept_indices = np.asarray(self.kept_indices, dtype=np.int64)
        self.in_mean = np.asarray(self.in_mean, dtype=np.float64)
        self.in_std = np.asarray(self.in_std, dtype=np.float64)
        if np.any(np.diff(self.kept_indices) <= 0):
            raise InvalidArgument("kept_indices must be strictly increasing")
        if np.any(self.in_std <= 0) or self.out_std <= 0:
            raise InvalidArgument("standardizer scales must be positive")

    def signed_bits(self, masks: np.ndarray) -> np.ndarray:
        """Kept coordinates of 0/1 mask rows, remapped to -1/+1."""
        masks = np.atleast_2d(np.asarray(masks))
        return 2.0 * masks[:, self.kept_indices].astype(np.float64) - 1.0

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
    """Trainable tensors; BatchNorm slots stay None when the option is off."""

    config: MlpConfig
    weights: list
    biases: list
    bn_gamma: list | None = None
    bn_beta: list | None = None
    bn_mean: list | None = None
    bn_var: list | None = None

    @property
    def uses_batchnorm(self) -> bool:
        return self.bn_gamma is not None

    def clone(self) -> "MlpParams":
        return copy.deepcopy(self)

    def trainables(self):
        tensors = list(self.weights) + list(self.biases)
        if self.uses_batchnorm:
            tensors += list(self.bn_gamma) + list(self.bn_beta)
        return tensors


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    dropout_p: float = 0.0
    batchnorm: bool = False
    mixup_alpha: float = 0.0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidArgument("epochs must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise InvalidArgument("dropout_p must be in [0, 1)")
        if self.mixup_alpha < 0.0:
            raise InvalidArgument("mixup_alpha must be >= 0")


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
                rng: np.random.Generator,
                batchnorm: bool = False) -> MlpParams:
    """Per-layer uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    weights, biases = [], []
    for fan_in, fan_out in _layer_dims(config, input_dim):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    params = MlpParams(config, weights, biases)
    if batchnorm:
        hidden = config.depth_l - 1
        params.bn_gamma = [np.ones(config.hidden_h) for _ in range(hidden)]
        params.bn_beta = [np.zeros(config.hidden_h) for _ in range(hidden)]
        params.bn_mean = [np.zeros(config.hidden_h) for _ in range(hidden)]
        params.bn_var = [np.ones(config.hidden_h) for _ in range(hidden)]
    return params


def _forward_cached(config, params, x, training=False, dropout_p=0.0,
                    rng=None):
    """Forward pass keeping every intermediate needed for backprop."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    L = config.depth_l
    if x.shape[1] != params.weights[0].shape[0]:
        raise InvalidArgument(
            f"input dim {x.shape[1]} != {params.weights[0].shape[0]}")
    drop = training and dropout_p > 0.0
    cache = {"zs": [], "bn": [], "drop_masks": [None] * (L + 1)}
    acts = [x]
    if drop:
        m0 = rng.random(x.shape) >= dropout_p
        cache["drop_masks"][0] = m0
        acts = [x * m0 / (1.0 - dropout_p)]
    for l in range(L):
        z = acts[l] @ params.weights[l] + params.biases[l]
        bn_cache = None
        if params.uses_batchnorm and l < L - 1:
            if training:
                mu = z.mean(axis=0)
                var = z.var(axis=0)
                params.bn_mean[l][:] = _BN_MOMENTUM * params.bn_mean[l] \
                    + (1 - _BN_MOMENTUM) * mu
                params.bn_var[l][:] = _BN_MOMENTUM * params.bn_var[l] \
                    + (1 - _BN_MOMENTUM) * var
            else:
                mu, var = params.bn_mean[l], params.bn_var[l]
            inv_std = 1.0 / np.sqrt(var + _BN_EPS)
            z_hat = (z - mu) * inv_std
            bn_cache = (z_hat, inv_std, training)
            z = params.bn_gamma[l] * z_hat + params.bn_beta[l]
        cache["zs"].append(z)
        cache["bn"].append(bn_cache)
        h = np.maximum(z, 0.0) if l < L - 1 else z
        if config.has_shortcut_into(l + 1):
            h = h + acts[l + 1 - config.shortcut_g]
        if drop and l < L - 1:
            m = rng.random(h.shape) >= dropout_p
            cache["drop_masks"][l + 1] = m
            h = h * m / (1.0 - dropout_p)
        acts.append(h)
    cache["acts"] = acts
    return acts[L][:, 0], cache


def _backward_cached(config, params, cache, d_out, dropout_p=0.0):
    """Reverse pass; returns (weight grads, bias grads, bn grads, input grad)."""
    L = config.depth_l
    acts = cache["acts"]
    d_acts = [np.zeros_like(a) for a in acts]
    d_acts[L] = np.asarray(d_out, dtype=np.float64).reshape(-1, 1)
    dW = [None] * L
    db = [None] * L
    dgamma = [None] * (L - 1)
    dbeta = [None] * (L - 1)
    for l in range(L - 1, -1, -1):
        dh = d_acts[l + 1]
        mask = cache["drop_masks"][l + 1]
        if mask is not None:
            dh = dh * mask / (1.0 - dropout_p)
        if config.has_shortcut_into(l + 1):
            d_acts[l + 1 - config.shortcut_g] += dh
        z = cache["zs"][l]
        dz = dh if l == L - 1 else dh * (z > 0)
        bn_cache = cache["bn"][l]
        if bn_cache is not None:
            z_hat, inv_std, trained = bn_cache
            dgamma[l] = (dz * z_hat).sum(axis=0)
            dbeta[l] = dz.sum(axis=0)
            if trained:
                dzh = dz * params.bn_gamma[l]
                dz = inv_std * (dzh - dzh.mean(axis=0)
                                - z_hat * (dzh * z_hat).mean(axis=0))
            else:
                dz = dz * params.bn_gamma[l] * inv_std
        dW[l] = acts[l].T @ dz
        db[l] = dz.sum(axis=0)
        d_acts[l] += dz @ params.weights[l].T
    d_in = d_acts[0]
    if cache["drop_masks"][0] is not None:
        d_in = d_in * cache["drop_masks"][0] / (1.0 - dropout_p)
    return dW, db, dgamma, dbeta, d_in


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
    return _mse_step(config, params, x, target)


def _mse_step(config, params, x, target, training=False, dropout_p=0.0,
              rng=None):
    """One forward/backward pass of the mean squared error against target:
    (loss, param grads in params.trainables() order, input grad)."""
    y, cache = _forward_cached(config, params, x, training, dropout_p, rng)
    resid = y - target
    dW, db, dgamma, dbeta, d_in = _backward_cached(
        config, params, cache, 2.0 * resid / resid.size, dropout_p)
    grads = dW + db
    if params.uses_batchnorm:
        grads += dgamma + dbeta
    return float(np.mean(resid ** 2)), grads, d_in


def output_and_input_gradient(config: MlpConfig, params: MlpParams,
                              x: np.ndarray):
    """Network outputs and d(output_i)/d(x_i) per row (evaluation mode)."""
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y, cache = _forward_cached(config, params, x2)
    _, _, _, _, d_in = _backward_cached(config, params, cache,
                                        np.ones_like(y))
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

    params = init_params(config, X.shape[1], rng, batchnorm=tc.batchnorm)
    opt = _Adam(params.trainables(), tc.learning_rate)
    best_params, best_report = None, None

    for _ in range(tc.epochs):
        idx = rng.permutation(X.shape[0])
        for start in range(0, idx.size, tc.batch_size):
            sel = idx[start:start + tc.batch_size]
            xb, yb = X[sel], y[sel]
            if tc.mixup_alpha > 0 and sel.size > 1:
                lam = rng.beta(tc.mixup_alpha, tc.mixup_alpha, sel.size)
                other = rng.permutation(sel.size)
                xb = lam[:, None] * xb + (1 - lam[:, None]) * xb[other]
                yb = lam * yb + (1 - lam) * yb[other]
            _, grads, _ = _mse_step(config, params, xb, yb, training=True,
                                    dropout_p=tc.dropout_p, rng=rng)
            if not all(np.all(np.isfinite(g)) for g in grads):
                raise NumericError("non-finite gradient during training")
            opt.step(params.trainables(), grads)
        report = evaluate_ioe(params, std, val_recs)
        if best_report is None or report.average_ioe < best_report.average_ioe:
            best_params, best_report = params.clone(), report

    return best_params, std, best_report
