"""Surrogate tests: standardization, shortcut topology, exact gradients
against central finite differences, IOE arithmetic, and training behavior."""

import numpy as np
import pytest

from polarlab.channel import FerEstimate
from polarlab.codec import FrozenMask
from polarlab.construction import DatasetRecord
from polarlab.errors import InvalidArgument
from polarlab.surrogate import (MlpConfig, TrainConfig, _mse_step, backward,
                                constant_predictor_ioe, evaluate_ioe,
                                fit_standardizer, forward, init_params,
                                output_and_input_gradient, train)


def make_record(bits, fer, frames=10_000):
    errors = max(1, int(round(fer * frames)))
    return DatasetRecord(FrozenMask(np.asarray(bits, dtype=np.uint8)),
                         FerEstimate.from_counts(errors, frames, 2.0))


def random_records(rng, count=20, n=16, frozen=8):
    recs = []
    for _ in range(count):
        bits = np.zeros(n, dtype=np.uint8)
        bits[rng.permutation(n)[:frozen]] = 1
        recs.append(make_record(bits, float(rng.uniform(1e-3, 1e-1))))
    return recs


# ---------------------------------------------------------------------------
# standardizer

def test_standardizer_drops_constant_coordinates():
    rng = np.random.default_rng(0)
    recs = []
    for _ in range(30):
        bits = np.zeros(12, dtype=np.uint8)
        bits[:3] = 1  # constant head
        bits[3 + rng.permutation(6)[:3]] = 1  # varying middle
        recs.append(make_record(bits, float(rng.uniform(1e-3, 1e-1))))
    std = fit_standardizer(recs)
    assert set(std.kept_indices) <= set(range(3, 9))
    x = std.transform_inputs(np.stack([r.mask.bits for r in recs]))
    assert np.allclose(x.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(x.std(axis=0), 1.0, atol=1e-12)


def test_standardizer_output_round_trip():
    rng = np.random.default_rng(1)
    std = fit_standardizer(random_records(rng))
    logs = np.log(np.array([1e-4, 3e-3, 0.2]))
    assert np.allclose(std.inverse_log_fer(std.transform_log_fer(logs)), logs)


def test_standardizer_rejects_degenerate_input():
    with pytest.raises(InvalidArgument):
        fit_standardizer([make_record([1, 0], 0.1)])
    same = [make_record([1, 0], 0.1), make_record([1, 0], 0.2)]
    with pytest.raises(InvalidArgument):
        fit_standardizer(same)  # constant coordinates only
    rng = np.random.default_rng(2)
    recs = random_records(rng, count=5)
    recs[0].fer_estimate = FerEstimate(0.0, 100, 0, 2.0, 0.0)
    with pytest.raises(InvalidArgument):
        fit_standardizer(recs)


# ---------------------------------------------------------------------------
# network topology

def test_shortcut_schedule():
    cfg = MlpConfig(6, 8, 3)
    # f^{l+1} gains a skip when l = kG, k >= 1, and l+1 < L
    assert [cfg.has_shortcut_into(j) for j in range(1, 7)] == \
        [False, False, False, True, False, False]
    cfg2 = MlpConfig(7, 8, 2)
    assert [j for j in range(1, 8) if cfg2.has_shortcut_into(j)] == [3, 5]


def test_forward_linear_oracle():
    """Depth-1 network is plain affine regression: check by hand."""
    cfg = MlpConfig(1, 4, 1)
    params = init_params(cfg, 3, np.random.default_rng(0))
    x = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 1.0]])
    expected = x @ params.weights[0][:, 0] + params.biases[0][0]
    assert np.allclose(forward(cfg, params, x), expected)


def test_forward_shortcut_changes_output():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (5, 6))
    with_skip = MlpConfig(5, 12, 2)
    without = MlpConfig(5, 12, 10)  # G too large for any skip
    p = init_params(with_skip, 6, np.random.default_rng(1))
    q = init_params(without, 6, np.random.default_rng(1))
    assert not np.allclose(forward(with_skip, p, x), forward(without, q, x))


# ---------------------------------------------------------------------------
# gradients

def _loss_and_grads(cfg, params, x, target, training):
    if not training:
        loss, grads, _ = backward(cfg, params, x, target)
    else:  # batch-statistics BatchNorm, the step train() runs
        loss, grads, _ = _mse_step(cfg, params, x, target, training=True)
    return loss, grads


def _fd_check(cfg, batchnorm, seed, rel_tol=1e-6):
    """batchnorm: False, True (running statistics) or "train" (batch
    statistics, as during training)."""
    training = batchnorm == "train"
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 9))
    params = init_params(cfg, d, rng, batchnorm=bool(batchnorm))
    for b in params.biases:
        # keep preactivations away from the ReLU kink, where the loss is
        # not differentiable and central differences see a half-slope
        b += rng.normal(0, 0.1, b.shape)
    x = rng.normal(0, 1, (7, d))
    target = rng.normal(0, 1, 7)
    _, grads = _loss_and_grads(cfg, params, x, target, training)
    tensors = params.trainables()
    eps = 1e-6
    worst = 0.0
    for t, g in zip(tensors, grads):
        flat = t.reshape(-1)
        for idx in rng.choice(flat.size, size=min(6, flat.size),
                              replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi, _ = _loss_and_grads(cfg, params, x, target, training)
            flat[idx] = orig - eps
            lo, _ = _loss_and_grads(cfg, params, x, target, training)
            flat[idx] = orig
            fd = (hi - lo) / (2 * eps)
            gi = g.reshape(-1)[idx]
            if training and abs(gi) < 1e-8:
                # a bias feeding a batch-statistics BatchNorm has a zero
                # gradient, so both sides are rounding noise (~1e-10):
                # compare them absolutely
                assert abs(fd - gi) < 1e-8, (fd, gi)
            else:
                worst = max(worst, abs(fd - gi) / max(abs(fd), abs(gi), 1e-8))
    assert worst < rel_tol, worst


@pytest.mark.parametrize("cfg,batchnorm", [
    (MlpConfig(1, 5, 1), False),
    (MlpConfig(2, 8, 1), False),
    (MlpConfig(3, 6, 2), True),
    (MlpConfig(6, 10, 3), False),
    (MlpConfig(6, 10, 3), True),
    (MlpConfig(5, 7, 2), False),
    (MlpConfig(3, 6, 2), "train"),
    (MlpConfig(6, 10, 3), "train"),
])
def test_parameter_gradients_match_finite_differences(cfg, batchnorm):
    _fd_check(cfg, batchnorm, seed=cfg.depth_l * 100 + cfg.hidden_h)


def test_input_gradient_matches_finite_differences():
    cfg = MlpConfig(4, 10, 3)
    rng = np.random.default_rng(9)
    params = init_params(cfg, 6, rng)
    x = rng.normal(0, 1, 6)
    y, g = output_and_input_gradient(cfg, params, x)
    eps = 1e-6
    for i in range(6):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (forward(cfg, params, xp) - forward(cfg, params, xm)) / (2 * eps)
        assert abs(fd - g[i]) < 1e-6 * max(1.0, abs(fd))
    assert y == forward(cfg, params, x)


# ---------------------------------------------------------------------------
# IOE

def test_ioe_definition():
    # IOE = max(FER/pred, pred/FER) - 1, on de-standardized predictions
    recs = [make_record([1, 0, 0, 1], 0.01, frames=100),
            make_record([0, 1, 1, 0], 0.04, frames=100)]
    std = fit_standardizer(recs)
    cfg = MlpConfig(1, 1, 1)
    params = init_params(cfg, std.kept_indices.size,
                         np.random.default_rng(0))
    rep = evaluate_ioe(params, std, recs)
    pred = std.inverse_log_fer(
        forward(cfg, params, std.transform_inputs(
            np.stack([r.mask.bits for r in recs]))))
    manual = np.maximum(np.array([0.01, 0.04]) / np.exp(pred),
                        np.exp(pred) / np.array([0.01, 0.04])) - 1.0
    assert np.allclose(rep.per_sample, manual)
    assert rep.average_ioe == pytest.approx(manual.mean())
    assert rep.worst_ioe == pytest.approx(manual.max())


def test_exact_prediction_gives_zero_ioe():
    recs = [make_record([1, 0], 0.02, frames=50),
            make_record([0, 1], 0.02, frames=50)]
    rep = constant_predictor_ioe(recs)
    assert rep.average_ioe == pytest.approx(0.0)


def test_constant_predictor_uses_geometric_mean():
    recs = [make_record([1, 0], 0.01, frames=100),
            make_record([0, 1], 0.04, frames=100)]
    rep = constant_predictor_ioe(recs)
    pred = np.sqrt(0.01 * 0.04)
    expected = 0.04 / pred - 1.0  # symmetric for both records
    assert rep.average_ioe == pytest.approx(expected)


def test_every_records_consumer_rejects_a_zero_error_record():
    rng = np.random.default_rng(3)
    recs = random_records(rng, count=6)
    recs[2].fer_estimate = FerEstimate.from_counts(0, 100, 2.0)
    std = fit_standardizer(recs[3:])
    params = init_params(MlpConfig(1, 1, 1), std.kept_indices.size,
                         np.random.default_rng(0))
    for consume in (lambda: constant_predictor_ioe(recs),
                    lambda: evaluate_ioe(params, std, recs),
                    lambda: fit_standardizer(recs),
                    lambda: train(recs, 0.5, MlpConfig(1, 1, 1),
                                  TrainConfig(epochs=1))):
        with pytest.raises(InvalidArgument, match="FER > 0"):
            consume()


# ---------------------------------------------------------------------------
# training

def test_train_is_deterministic():
    rng = np.random.default_rng(4)
    recs = random_records(rng, count=40)
    cfg = MlpConfig(2, 16, 1)
    tc = TrainConfig(epochs=5, seed=11)
    p1, s1, r1 = train(recs, 0.8, cfg, tc)
    p2, s2, r2 = train(recs, 0.8, cfg, tc)
    for a, b in zip(p1.trainables(), p2.trainables()):
        assert np.array_equal(a, b)
    assert r1.average_ioe == r2.average_ioe
    assert np.array_equal(s1.kept_indices, s2.kept_indices)


def test_train_options_run_and_learn():
    """Dropout, BatchNorm, and Mixup all leave the exact-gradient training
    loop functional (loss decreases vs an untrained constant baseline)."""
    rng = np.random.default_rng(5)
    w = rng.normal(0, 0.4, 10)
    recs = []
    for _ in range(150):
        bits = np.zeros(10, dtype=np.uint8)
        bits[rng.permutation(10)[:5]] = 1
        lf = min(-0.5, float(w @ bits) - 3.0)
        recs.append(make_record(bits, float(np.exp(lf)), frames=100_000))
    chance = constant_predictor_ioe(recs).average_ioe
    for tc in (TrainConfig(epochs=150, seed=2, dropout_p=0.1),
               TrainConfig(epochs=150, seed=2, batchnorm=True),
               TrainConfig(epochs=150, seed=2, mixup_alpha=0.2)):
        _, _, rep = train(recs, 0.8, MlpConfig(2, 32, 1), tc)
        assert rep.average_ioe < chance


def test_train_validates_arguments():
    rng = np.random.default_rng(6)
    recs = random_records(rng, count=10)
    with pytest.raises(InvalidArgument):
        train([], 0.8, MlpConfig(2, 8, 1), TrainConfig(epochs=1))
    with pytest.raises(InvalidArgument):
        train(recs, 1.5, MlpConfig(2, 8, 1), TrainConfig(epochs=1))
    with pytest.raises(InvalidArgument):
        TrainConfig(epochs=0)
    with pytest.raises(InvalidArgument):
        TrainConfig(epochs=1, dropout_p=1.0)
