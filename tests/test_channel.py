"""Channel and Monte Carlo engine tests: noise calibration against the
Q-function, reproducibility across worker counts, and estimate bookkeeping."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy.special import erfc

from polarlab import channel
from polarlab.channel import (BATCH_FRAMES, ChannelConfig, FerEstimate,
                              MonteCarloConfig, _batch_rng, _simulate_group,
                              estimate_fer, transmit)
from polarlab.codec import CodeSpec, DecoderConfig, FrozenMask
from polarlab.construction import build_mask, ga_reliabilities
from polarlab.errors import InvalidArgument, PolarLabError


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


def test_grouped_batches_match_batch_by_batch_at_any_worker_count():
    # (32,16) SCL-2 decodes up to 8 batches per call: 11 batches, the last
    # one partial, make a second call of 3 that ends in the partial batch
    spec = CodeSpec(32, 16)
    mask = build_mask(spec, ga_reliabilities(spec, 2.0))
    dec = DecoderConfig("scl", 2)
    ch = ChannelConfig(1.0, 0.5)
    max_frames = 10 * BATCH_FRAMES + 300
    results = [estimate_fer(spec, mask, dec, ch,
                            MonteCarloConfig(11, 10**9, max_frames, w))
               for w in (1, 2, 3, 8)]
    assert results[1:] == results[:-1]
    mc = MonteCarloConfig(11, 10**9, max_frames)
    errors = sum(_simulate_group(spec, mask, dec, ch, mc, range(b, b + 1))[1]
                 for b in range(11))
    assert (results[0].frames, results[0].frame_errors) == (max_frames,
                                                            errors)
    assert 0 < errors < max_frames


@pytest.mark.parametrize("n,k,list_size,max_frames,rows", [
    (64, 32, 4, 4 * 2 * BATCH_FRAMES, {2 * BATCH_FRAMES}),
    (256, 128, 32, 2 * BATCH_FRAMES + 76, {BATCH_FRAMES, 76})],
    ids=["n64_scl4", "n256_scl32"])
def test_decode_calls_hold_at_most_the_budget(n, k, list_size, max_frames,
                                              rows, monkeypatch):
    # two batches per call at (64,32) SCL-4, one at (256,128) SCL-32,
    # whose decoder state at 512 frames is as large as a call should hold
    spec = CodeSpec(n, k)
    mask = build_mask(spec, ga_reliabilities(spec, 3.2))
    seen = []
    decode = channel.decode_batch

    def spy(spec, mask, config, llrs):
        seen.append(len(llrs))
        return decode(spec, mask, config, llrs)

    monkeypatch.setattr(channel, "decode_batch", spy)
    est = estimate_fer(spec, mask, DecoderConfig("scl", list_size),
                       ChannelConfig(3.2, 0.5),
                       MonteCarloConfig(3, 10**9, max_frames, workers=2))
    assert est.frames == sum(seen) == max_frames
    assert set(seen) == rows


def test_seed_changes_stream_batch_keying():
    """Different seeds and different batch indices give distinct streams;
    the same pair is reproducible."""
    a = _batch_rng(1, 0).random(8)
    assert np.array_equal(a, _batch_rng(1, 0).random(8))
    assert not np.array_equal(a, _batch_rng(2, 0).random(8))
    assert not np.array_equal(a, _batch_rng(1, 1).random(8))


@pytest.mark.parametrize("n,k,decoder,frames", [
    (16, 8, DecoderConfig("sc"), 8 * BATCH_FRAMES),
    (64, 32, DecoderConfig("scl", 4), 2 * BATCH_FRAMES)],
    ids=["n16_sc", "n64_scl4"])
def test_early_stopping_is_call_aligned(n, k, decoder, frames):
    # a call holds 8 batches at (16,8) SC and 2 at (64,32) SCL-4
    spec = CodeSpec(n, k)
    mask = FrozenMask(np.repeat(np.uint8([1, 0]), n // 2))
    ch = ChannelConfig(0.0, 0.5)  # noisy: errors arrive immediately
    est = estimate_fer(spec, mask, decoder, ch,
                       MonteCarloConfig(3, 1, 100_000))
    assert est.frames == frames  # exactly one call
    assert est.frame_errors >= 1


def _stopped_prefix(calls, target):
    """(frames, errors) summed over calls up to the first whose
    cumulative errors reach target."""
    frames = errors = 0
    for size, err in calls:
        frames += size
        errors += err
        if errors >= target:
            break
    return frames, errors


def test_estimate_is_the_prefix_of_aligned_calls_at_any_worker_count():
    # (64,32) SCL-4 calls hold 2 batches: 8 batches, the last one partial,
    # make 4 calls, so the 1, 2, 3 and 8 workers split them differently
    spec = CodeSpec(64, 32)
    mask = build_mask(spec, ga_reliabilities(spec, 3.2))
    dec = DecoderConfig("scl", 4)
    ch = ChannelConfig(1.5, 0.5)
    max_frames = 7 * BATCH_FRAMES + 300
    mc = MonteCarloConfig(11, 1, max_frames)
    calls = [_simulate_group(spec, mask, dec, ch, mc, range(b, min(b + 2, 8)))
             for b in range(0, 8, 2)]
    cumulative = np.cumsum([err for _, err in calls])
    assert 0 < cumulative[0] and calls[-1][0] == BATCH_FRAMES + 300
    # stop in the second call, in the last (partial) call, or never
    targets = (int(cumulative[0]) + 1, int(cumulative[-1]), 10**9)
    assert _stopped_prefix(calls, targets[0])[0] == 4 * BATCH_FRAMES
    for target in targets:
        expected = _stopped_prefix(calls, target)
        for w in (1, 2, 3, 8):
            run = dataclasses.replace(mc, target_frame_errors=target,
                                      workers=w)
            est = estimate_fer(spec, mask, dec, ch, run)
            assert (est.frames, est.frame_errors) == expected, (target, w)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_at_most_workers_minus_one_calls_pass_the_stopping_call(
        workers, monkeypatch):
    # at w workers the pool decodes w calls at a time, so at most w - 1
    # calls past the stopping one
    spec = CodeSpec(64, 32)
    mask = build_mask(spec, ga_reliabilities(spec, 3.2))
    seen = []
    decode = channel.decode_batch

    def spy(spec, mask, config, llrs):
        seen.append(len(llrs))
        return decode(spec, mask, config, llrs)

    monkeypatch.setattr(channel, "decode_batch", spy)
    dec, ch = DecoderConfig("scl", 4), ChannelConfig(1.5, 0.5)
    mc = MonteCarloConfig(5, 200, 100_000, workers)
    est = estimate_fer(spec, mask, dec, ch, mc)
    used = est.frames // (2 * BATCH_FRAMES)
    assert est.frames == used * 2 * BATCH_FRAMES and used > 1
    assert set(seen) == {2 * BATCH_FRAMES}
    assert used <= len(seen) <= used + workers - 1
    # the last call used is the first to reach the target
    _, last = _simulate_group(spec, mask, dec, ch, mc,
                              range(2 * used - 2, 2 * used))
    assert est.frame_errors - last < mc.target_frame_errors \
        <= est.frame_errors


def test_max_frames_caps_the_run():
    spec = CodeSpec(16, 8)
    mask = FrozenMask(np.array([1] * 8 + [0] * 8, dtype=np.uint8))
    dec = DecoderConfig("sc")
    ch = ChannelConfig(20.0, 0.5)  # clean: target errors never reached
    est = estimate_fer(spec, mask, dec, ch, MonteCarloConfig(3, 100, 3000))
    assert est.frames == 3000


def test_ebn0_past_the_decoder_width():
    # at rate 1/2 a noiseless symbol's LLR passes float32's largest finite
    # value above about 382 dB, and float64's only above about 3080 dB
    spec = CodeSpec(16, 8)
    mask = FrozenMask(np.array([1] * 8 + [0] * 8, dtype=np.uint8))
    ch = ChannelConfig(400.0, 0.5)
    mc = MonteCarloConfig(3, 5, 2000)
    with pytest.raises(InvalidArgument, match="Eb/N0 400.0 dB .* float32"):
        estimate_fer(spec, mask, DecoderConfig("scl", 2), ch, mc)
    est = estimate_fer(spec, mask, DecoderConfig("scl", 2, exact=True), ch,
                       mc)
    assert (est.fer, est.frames) == (0.0, 2000)


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


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("cls", [PolarLabError, *_subclasses(PolarLabError)],
                         ids=lambda cls: cls.__name__)
def test_polarlab_errors_survive_a_pickle_round_trip(cls):
    """A pool process sends an estimate's PolarLabError back pickled."""
    copy = pickle.loads(pickle.dumps(cls("mask 3: no frames simulated")))
    assert type(copy) is cls
    assert str(copy) == "mask 3: no frames simulated"
