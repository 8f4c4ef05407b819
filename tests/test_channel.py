"""Channel and Monte Carlo engine tests: noise calibration against the
Q-function, reproducibility across worker counts, and estimate bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import erfc

from polarlab.channel import (BATCH_FRAMES, ChannelConfig, FerEstimate,
                              MonteCarloConfig, _batch_rng, estimate_fer,
                              transmit)
from polarlab.codec import CodeSpec, DecoderConfig, FrozenMask
from polarlab.errors import InvalidArgument


def q_function(x: float) -> float:
    return 0.5 * erfc(x / math.sqrt(2.0))


def test_noise_variance_formula():
    # sigma^2 = 1 / (2 R 10^(dB/10))
    assert ChannelConfig(0.0, 0.5).noise_variance == pytest.approx(1.0)
    assert ChannelConfig(3.0, 0.5).noise_variance == pytest.approx(
        1.0 / (2 * 0.5 * 10 ** 0.3))
    assert ChannelConfig(2.0, 1.0).noise_variance == pytest.approx(
        1.0 / (2 * 10 ** 0.2))
    with pytest.raises(InvalidArgument):
        ChannelConfig(1.0, 0.0)
    with pytest.raises(InvalidArgument):
        ChannelConfig(1.0, 1.5)
    # 10**(dB/10) is NaN, 0, inf or out of float range: no usable variance
    for ebn0 in (math.nan, math.inf, -math.inf, -4000.0, 4000.0):
        with pytest.raises(InvalidArgument):
            ChannelConfig(ebn0, 0.5)


def test_transmit_llr_statistics():
    """Channel LLRs for bit 0 are N(2/sigma^2 * 1, 4/sigma^2) — check the
    empirical mean and variance, and the sign convention for bit 1."""
    cfg = ChannelConfig(2.0, 0.5)
    sigma2 = cfg.noise_variance
    rng = _batch_rng(1, 0)
    llrs = transmit(np.zeros((2000, 16), dtype=np.uint8), cfg, rng)
    assert llrs.mean() == pytest.approx(2.0 / sigma2, rel=0.02)
    assert llrs.var() == pytest.approx(4.0 / sigma2, rel=0.05)
    rng = _batch_rng(1, 0)
    flipped = transmit(np.ones((2000, 16), dtype=np.uint8), cfg, rng)
    assert np.allclose(flipped.mean(), -2.0 / sigma2, rtol=0.02)


def test_uncoded_ber_matches_q_function():
    """Uncoded BPSK through the full estimator equals Q(sqrt(2 Eb/N0))."""
    spec = CodeSpec(1, 1)
    mask = FrozenMask(np.zeros(1, dtype=np.uint8))
    dec = DecoderConfig("sc")
    for ebn0 in (2.0, 4.0):
        frames = 120_000
        mc = MonteCarloConfig(seed=5, target_frame_errors=10**9,
                              max_frames=frames)
        est = estimate_fer(spec, mask, dec, ChannelConfig(ebn0, 1.0), mc)
        p = q_function(math.sqrt(2.0 * 10 ** (ebn0 / 10.0)))
        sigma = math.sqrt(p * (1 - p) / frames)
        assert abs(est.fer - p) < 3 * sigma


def test_worker_count_does_not_change_estimate():
    spec = CodeSpec(32, 16)
    rng = np.random.default_rng(1)
    bits = np.zeros(32, dtype=np.uint8)
    bits[rng.permutation(32)[:16]] = 1
    mask = FrozenMask(bits)
    dec = DecoderConfig("scl", 2)
    ch = ChannelConfig(2.0, 0.5)
    results = [
        estimate_fer(spec, mask, dec, ch,
                     MonteCarloConfig(7, 80, 50_000, workers=w))
        for w in (1, 4, 8)
    ]
    assert results[0] == results[1] == results[2]


def test_seed_changes_stream_batch_keying():
    """Different seeds and different batch indices give distinct streams;
    the same pair is reproducible."""
    a = _batch_rng(1, 0).random(8)
    assert np.array_equal(a, _batch_rng(1, 0).random(8))
    assert not np.array_equal(a, _batch_rng(2, 0).random(8))
    assert not np.array_equal(a, _batch_rng(1, 1).random(8))


def test_early_stopping_is_round_aligned():
    spec = CodeSpec(16, 8)
    mask = FrozenMask(np.array([1] * 8 + [0] * 8, dtype=np.uint8))
    dec = DecoderConfig("sc")
    ch = ChannelConfig(0.0, 0.5)  # noisy: errors arrive immediately
    est = estimate_fer(spec, mask, dec, ch, MonteCarloConfig(3, 1, 100_000))
    assert est.frames == 8 * BATCH_FRAMES  # exactly one round
    assert est.frame_errors >= 1


def test_max_frames_caps_the_run():
    spec = CodeSpec(16, 8)
    mask = FrozenMask(np.array([1] * 8 + [0] * 8, dtype=np.uint8))
    dec = DecoderConfig("sc")
    ch = ChannelConfig(20.0, 0.5)  # clean: target errors never reached
    est = estimate_fer(spec, mask, dec, ch, MonteCarloConfig(3, 100, 3000))
    assert est.frames == 3000


def test_fer_estimate_bookkeeping():
    est = FerEstimate.from_counts(25, 10_000, 3.0)
    assert est.fer == 25 / 10_000
    p = est.fer
    assert est.ci_halfwidth == pytest.approx(
        1.96 * math.sqrt(p * (1 - p) / 10_000))
    with pytest.raises(InvalidArgument):
        FerEstimate(0.5, 10, 20, 1.0, 0.0)
    with pytest.raises(InvalidArgument):
        FerEstimate(1.5, 10, 5, 1.0, 0.0)
    # fer or half-width other than from_counts gives, or counts out of range
    for fields in ((0.3, 10, 5, 2.0, 0.0), (0.5, 10, 5, 2.0, 0.0),
                   (0.0, 0, 0, 2.0, 0.0), (0.5, 10, -5, 2.0, 9.0)):
        with pytest.raises(InvalidArgument):
            FerEstimate(*fields)
    assert FerEstimate(*dataclasses.astuple(est)) == est


def test_mc_config_validation():
    # Philox takes a 64-bit key: a larger seed would alias seed mod 2**64
    for bad in (dict(target_frame_errors=0), dict(max_frames=0),
                dict(workers=0), dict(seed=-1), dict(seed=2**64),
                dict(seed=5 + 2**64)):
        with pytest.raises(InvalidArgument):
            MonteCarloConfig(**{"seed": 0, "target_frame_errors": 100,
                                "max_frames": 1000, "workers": 1, **bad})
    assert MonteCarloConfig(2**64 - 1).seed == 2**64 - 1


def test_mc_config_derive_spawns_a_child_seed():
    mc = MonteCarloConfig(7, 50, 4096, workers=3)
    child = mc.derive(2, 5)
    expected = np.random.SeedSequence([7, 2, 5]).generate_state(1)[0]
    assert child == MonteCarloConfig(int(expected), 50, 4096, workers=3)
    assert mc.derive(2, 5) == child and mc.derive(5, 2) != child
