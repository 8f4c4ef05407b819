"""PGD search tests: quantization projection, straight-through updates on a
linear surrogate, restart handling, and validation plumbing."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlab import search
from polarlab.channel import ChannelConfig, MonteCarloConfig
from polarlab.codec import CodeSpec, DecoderConfig, FrozenMask
from polarlab.errors import InvalidArgument, NumericError
from polarlab.search import (PgdConfig, pgd_run, quantize,
                             search_and_validate)
from polarlab.surrogate import (MlpConfig, MlpParams, Standardizer,
                                init_params, output_and_input_gradient)


def test_quantize_examples():
    q = quantize(np.array([0.2, -0.1, 0.5, 0.3]), 2)
    assert np.array_equal(q, [-1, -1, 1, 1])
    assert np.array_equal(quantize(np.array([5.0, 1.0]), 0), [-1, -1])
    assert np.array_equal(quantize(np.array([-5.0, -1.0]), 2), [1, 1])


def test_quantize_stable_ties():
    # equal values resolve to the lower index
    assert np.array_equal(quantize(np.array([0.5, 0.5, 0.5]), 2), [1, 1, -1])


def test_quantize_rejects_bad_quota():
    with pytest.raises(InvalidArgument):
        quantize(np.array([0.0, 1.0]), 3)
    with pytest.raises(InvalidArgument):
        quantize(np.array([0.3, 0.1, 0.2]), -1)
    with pytest.raises(InvalidArgument):
        quantize(np.zeros((2, 3)), 4)


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=30),
       st.data())
@settings(max_examples=50, deadline=None)
def test_quantize_quota_and_idempotence(values, data):
    v = np.array(values)
    quota = data.draw(st.integers(0, v.size))
    q = quantize(v, quota)
    assert set(np.unique(q)) <= {-1.0, 1.0}
    assert int((q > 0).sum()) == quota
    assert np.array_equal(quantize(q, quota), q)


@given(st.integers(1, 6), st.integers(1, 20), st.data())
@settings(max_examples=50, deadline=None)
def test_quantize_rows_equal_row_by_row(rows, length, data):
    # few distinct values, so ties within a row are common
    values = data.draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                                min_size=rows * length,
                                max_size=rows * length))
    m = np.array(values).reshape(rows, length)
    quota = data.draw(st.integers(0, length))
    q = quantize(m, quota)
    assert q.shape == m.shape
    for row, q_row in zip(m, q):
        assert np.array_equal(q_row, quantize(row, quota))


def _linear_surrogate(weights):
    """Depth-1 network computing w . x: exact and analytically invertible."""
    cfg = MlpConfig(1, 1, 1)
    w = np.asarray(weights, dtype=np.float64)[:, None]
    return MlpParams(cfg, [w], [np.zeros(1)])


def _identity_standardizer(kept, n):
    return Standardizer(np.asarray(kept), np.zeros(len(kept)),
                        np.ones(len(kept)), 0.0, 1.0)


def test_pgd_finds_linear_optimum():
    """On a linear surrogate the quota-constrained minimizer freezes the
    coordinates with the most negative weights; PGD must recover it."""
    n = 16
    rng = np.random.default_rng(0)
    w = rng.normal(0, 1, n)
    params = _linear_surrogate(w)
    std = _identity_standardizer(np.arange(n), n)
    base_bits = np.zeros(n, dtype=np.uint8)
    base_bits[:8] = 1
    base = FrozenMask(base_bits)
    # enough iterations for the accumulated -mu*w drift to dominate the
    # random initialization even between close weight values
    cfg = PgdConfig(iterations_i=3000, step_mu=0.1, seed=1)
    rep = pgd_run(params, std, cfg, base)
    optimal = set(np.argsort(w, kind="stable")[:8])
    assert set(np.flatnonzero(rep.mask.bits)) == optimal
    assert rep.predicted_fer == pytest.approx(
        float(np.exp(w @ (2.0 * rep.mask.bits - 1.0))))


def test_pgd_preserves_constant_coordinates_and_quota():
    n = 12
    rng = np.random.default_rng(2)
    kept = np.arange(2, 10)  # coordinates 0,1,10,11 are constant
    params = _linear_surrogate(rng.normal(0, 1, kept.size))
    std = _identity_standardizer(kept, n)
    base_bits = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
    base = FrozenMask(base_bits)
    rep = pgd_run(params, std, PgdConfig(iterations_i=50, seed=3), base)
    assert rep.mask.frozen_count == base.frozen_count
    for i in (0, 1, 10, 11):
        assert rep.mask.bits[i] == base_bits[i]


def test_pgd_zero_step_keeps_initialization():
    n = 10
    params = _linear_surrogate(np.ones(n))
    std = _identity_standardizer(np.arange(n), n)
    base = FrozenMask(np.array([1] * 5 + [0] * 5, dtype=np.uint8))
    a = pgd_run(params, std, PgdConfig(iterations_i=5, step_mu=0.0, seed=4),
                base)
    b = pgd_run(params, std, PgdConfig(iterations_i=9, step_mu=0.0, seed=4),
                base)
    assert np.array_equal(a.mask.bits, b.mask.bits)
    assert a.best_iteration == 0


def test_pgd_tracks_best_iterate_not_last():
    """With a large step the trajectory oscillates; the report must carry
    the best predicted FER seen anywhere along it."""
    n = 8
    rng = np.random.default_rng(5)
    params = _linear_surrogate(rng.normal(0, 1, n))
    std = _identity_standardizer(np.arange(n), n)
    base = FrozenMask(np.array([1] * 4 + [0] * 4, dtype=np.uint8))
    rep = pgd_run(params, std, PgdConfig(iterations_i=100, step_mu=5.0,
                                         seed=6), base)
    signed = 2.0 * rep.mask.bits.astype(np.float64) - 1.0
    assert rep.predicted_fer == pytest.approx(
        float(np.exp(params.weights[0][:, 0] @ signed)))


def test_pgd_raises_on_nonfinite_gradient():
    n = 6
    params = _linear_surrogate(np.full(n, np.inf))
    std = _identity_standardizer(np.arange(n), n)
    base = FrozenMask(np.array([1] * 3 + [0] * 3, dtype=np.uint8))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        pgd_run(params, std, PgdConfig(iterations_i=3), base)


def test_pgd_config_validation():
    with pytest.raises(InvalidArgument):
        PgdConfig(iterations_i=0)
    for mu in (-0.1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidArgument):
            PgdConfig(step_mu=mu)
    PgdConfig(step_mu=0.0)
    with pytest.raises(InvalidArgument):
        PgdConfig(restarts=0)
    with pytest.raises(InvalidArgument):
        PgdConfig(seed=-1)
    with pytest.raises(InvalidArgument):  # ranked[:-1] would skip the last
        PgdConfig(top_k=-1)


def test_search_and_validate_orders_and_dedupes():
    spec = CodeSpec(16, 8)
    n = 16
    rng = np.random.default_rng(7)
    params = _linear_surrogate(rng.normal(0, 0.5, n))
    std = _identity_standardizer(np.arange(n), n)
    base = FrozenMask(np.array([1] * 8 + [0] * 8, dtype=np.uint8))
    cfg = PgdConfig(iterations_i=60, restarts=6, seed=8, top_k=2)
    mc = MonteCarloConfig(seed=1, target_frame_errors=5, max_frames=5000)
    out = search_and_validate(params, std, cfg, spec, DecoderConfig("sc"),
                              ChannelConfig(1.0, 0.5), mc, base)
    masks = {rep.mask.bits.tobytes() for rep in out}
    assert len(masks) == len(out)
    validated = [rep for rep in out if rep.validated is not None]
    assert 1 <= len(validated) <= 2
    # validated candidates come first, sorted by measured FER
    for i, rep in enumerate(out):
        assert (rep.validated is None) == (i >= len(validated))
    fers = [rep.validated.fer for rep in validated]
    assert fers == sorted(fers)
    for rep in out:
        assert rep.mask.frozen_count == 8


def test_pgd_overflowing_predictions_abort_the_restart(caplog):
    """A restart whose every predicted FER overflows exp() has no best
    mask: it aborts with NumericError instead of crashing the search."""
    n = 8
    params = _linear_surrogate(np.linspace(-1, 1, n))
    std = Standardizer(np.arange(n), np.zeros(n), np.ones(n), 800.0, 1.0)
    base = FrozenMask(np.array([1] * 4 + [0] * 4, dtype=np.uint8))
    cfg = PgdConfig(iterations_i=5, restarts=3, top_k=1)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="no finite predicted FER"):
            pgd_run(params, std, cfg, base)
        with caplog.at_level(logging.WARNING, logger="polarlab.search"):
            out = search_and_validate(params, std, cfg, CodeSpec(8, 4),
                                      DecoderConfig("sc"),
                                      ChannelConfig(1.0, 0.5),
                                      MonteCarloConfig(0, 2, 2000), base)
    assert out == []
    aborted = [r.getMessage() for r in caplog.records
               if "aborted" in r.getMessage()]
    assert [m.split(":")[0] for m in aborted] == [
        f"restart {j} aborted" for j in range(3)]


def _reference_pgd(params, standardizer, config, base_mask, restart_index):
    """One restart as a plain loop over 1-D vectors: the search before
    restarts ran as rows of one matrix."""
    kept = standardizer.kept_indices
    quota = int(base_mask.bits[kept].sum())
    rng = np.random.default_rng([config.seed, restart_index])
    relaxed = np.full(kept.size, -1.0)
    relaxed[rng.permutation(kept.size)[:quota]] = 1.0
    best_pred, best_q, best_iter = np.inf, None, -1
    for it in range(config.iterations_i + 1):
        q = quantize(relaxed, quota)
        y, g_std = output_and_input_gradient(
            params.config, params, standardizer.transform_signed(q))
        pred = float(np.exp(standardizer.inverse_log_fer(y)))
        if pred < best_pred:
            best_pred, best_q, best_iter = pred, q, it
        relaxed = relaxed - config.step_mu * (g_std / standardizer.in_std)
    bits = base_mask.bits.copy()
    bits[kept] = (best_q > 0).astype(np.uint8)
    return bits, best_pred, best_iter


def _mlp_surrogate(n, seed):
    rng = np.random.default_rng(seed)
    params = init_params(MlpConfig(3, 16, 2), n, rng)
    std = Standardizer(np.arange(n), rng.normal(0, 0.1, n),
                       rng.uniform(0.8, 1.2, n), -4.0, 1.5)
    return params, std


def _linear_case(seed, scale):
    w = np.random.default_rng(seed).normal(0, scale, 16)
    return _linear_surrogate(w), _identity_standardizer(np.arange(16), 16)


# (surrogate factory, PgdConfig): the linear-surrogate seeds of the tests
# above, plus MLPs whose gemm and gemv products round differently
_PGD_CASES = {
    "linear-0": (lambda: _linear_case(0, 1.0),
                 PgdConfig(iterations_i=300, seed=1, restarts=5)),
    "linear-5": (lambda: _linear_case(5, 1.0),
                 PgdConfig(iterations_i=100, step_mu=5.0, seed=6,
                           restarts=5)),
    "linear-7": (lambda: _linear_case(7, 0.5),
                 PgdConfig(iterations_i=60, seed=8, restarts=6)),
    "mlp": (lambda: _mlp_surrogate(16, 11),
            PgdConfig(iterations_i=200, seed=12, restarts=7)),
}
_BASE16 = FrozenMask(np.array([1] * 8 + [0] * 8, dtype=np.uint8))


@pytest.mark.parametrize("case", list(_PGD_CASES))
def test_pgd_run_equals_reference_loop(case):
    make, cfg = _PGD_CASES[case]
    params, std = make()
    for j in range(cfg.restarts):
        rep = pgd_run(params, std, cfg, _BASE16, restart_index=j)
        bits, pred, it = _reference_pgd(params, std, cfg, _BASE16, j)
        assert np.array_equal(rep.mask.bits, bits)
        assert rep.predicted_fer == pred
        assert rep.best_iteration == it
        assert rep.restart_index == j


@pytest.mark.parametrize("case", list(_PGD_CASES))
def test_batched_restarts_equal_per_restart_runs(case):
    make, cfg = _PGD_CASES[case]
    params, std = make()
    batched = search._pgd_restarts(params, std, cfg, _BASE16,
                                   range(cfg.restarts))
    for j, rep in enumerate(batched):
        single = pgd_run(params, std, cfg, _BASE16, restart_index=j)
        assert np.array_equal(rep.mask.bits, single.mask.bits)
        assert rep.restart_index == single.restart_index == j
        assert rep.best_iteration == single.best_iteration
        assert rep.predicted_fer == pytest.approx(single.predicted_fer,
                                                  rel=1e-12, abs=0)


def test_nonfinite_row_aborts_only_its_restart(monkeypatch, caplog):
    make, cfg = _PGD_CASES["mlp"]
    params, std = make()
    clean = search._pgd_restarts(params, std, cfg, _BASE16,
                                 range(cfg.restarts))
    bad, calls = 2, []

    def poisoned(config, p, x):
        y, g = output_and_input_gradient(config, p, x)
        calls.append(None)
        if len(calls) > 20:
            y = y.copy()
            y[bad] = np.nan
        return y, g

    monkeypatch.setattr(search, "output_and_input_gradient", poisoned)
    results = search._pgd_restarts(params, std, cfg, _BASE16,
                                   range(cfg.restarts))
    assert isinstance(results[bad], NumericError)
    assert "iteration 20 of restart 2" in str(results[bad])
    for j, (rep, ref) in enumerate(zip(results, clean)):
        if j != bad:
            assert np.array_equal(rep.mask.bits, ref.mask.bits)
            assert rep.predicted_fer == ref.predicted_fer
            assert rep.best_iteration == ref.best_iteration

    calls.clear()
    with caplog.at_level(logging.WARNING, logger="polarlab.search"):
        out = search_and_validate(params, std, dataclasses.replace(cfg, top_k=0),
                                  CodeSpec(16, 8), DecoderConfig("sc"),
                                  ChannelConfig(1.0, 0.5),
                                  MonteCarloConfig(0, 2, 2000), _BASE16)
    aborted = [r.getMessage() for r in caplog.records
               if "aborted" in r.getMessage()]
    assert len(aborted) == 1 and aborted[0].startswith("restart 2 aborted")
    assert all(rep.restart_index != bad for rep in out)

