"""GA construction tests: phi inverse consistency, recursion oracles,
domination ordering, mask building, and shuffled dataset generation."""

import concurrent.futures
import logging
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlab import construction
from polarlab.channel import ChannelConfig, MonteCarloConfig
from polarlab.codec import CodeSpec, DecoderConfig
from polarlab.construction import (PHI_COEFFS, ReliabilityOrder,
                                   ShuffleConfig, _inv_log_phi, _log_phi,
                                   build_mask, ga_reliabilities,
                                   generate_dataset, select_shuffle_range)
from polarlab.errors import InvalidArgument, NumericError


def test_phi_coefficients_and_continuity():
    assert PHI_COEFFS["a"] == -0.4527
    assert PHI_COEFFS["b"] == 0.86
    assert PHI_COEFFS["c"] == 0.0218
    # the two pieces of phi nearly agree at the split point
    below = _log_phi(np.array([PHI_COEFFS["split"] - 1e-9]))[0]
    above = _log_phi(np.array([PHI_COEFFS["split"] + 1e-9]))[0]
    assert abs(below - above) < 0.1


def test_phi_inverse_round_trip():
    x = np.geomspace(0.05, 200.0, 40)
    recovered = _inv_log_phi(_log_phi(x))
    assert np.allclose(recovered, x, rtol=1e-6)


def test_ga_n2_oracle():
    """One split: check channel m1 = phi^{-1}(1-(1-phi(m))^2), variable
    channel m2 = 2m, computed here independently from phi."""
    spec = CodeSpec(2, 1)
    order = ga_reliabilities(spec, 2.0)
    m = 2.0 / ChannelConfig(2.0, 0.5).noise_variance
    phi_m = np.exp(_log_phi(np.array([m])))[0]
    expected_check = _inv_log_phi(np.log(np.array([1 - (1 - phi_m) ** 2])))[0]
    assert order.reliabilities[0] == pytest.approx(expected_check, rel=1e-6)
    assert order.reliabilities[1] == pytest.approx(2 * m)
    assert list(order.order) == [0, 1]


def test_ga_n4_position_roles():
    """Position bits read MSB-first give the op sequence: position 1 (binary
    01) is check-then-variable, position 2 (binary 10) variable-then-check."""
    spec = CodeSpec(4, 2)
    rel = ga_reliabilities(spec, 2.0).reliabilities
    m = np.array([2.0 / ChannelConfig(2.0, 0.5).noise_variance])

    def check(v):
        lp = _log_phi(v)
        return _inv_log_phi(lp + np.log(2.0 - np.exp(lp)))

    assert rel[0] == pytest.approx(check(check(m))[0], rel=1e-6)
    assert rel[1] == pytest.approx((2 * check(m))[0], rel=1e-6)
    assert rel[2] == pytest.approx(check(2 * m)[0], rel=1e-6)
    assert rel[3] == pytest.approx(4 * m[0])


@pytest.mark.parametrize("n", [8, 64, 256])
def test_ga_respects_binary_domination(n):
    """If the support of i is a subset of the support of j, channel j cannot
    be less reliable than channel i."""
    rel = ga_reliabilities(CodeSpec(n, n // 2), 2.0).reliabilities
    idx = np.arange(n)
    for i in range(n):
        dominated = (idx & i) == i  # i's set bits are a subset of idx's
        assert np.all(rel[dominated] >= rel[i] * (1 - 1e-12))


def test_ga_reliability_grows_with_snr():
    spec = CodeSpec(64, 32)
    low = ga_reliabilities(spec, 0.0).reliabilities
    high = ga_reliabilities(spec, 4.0).reliabilities
    assert np.all(high >= low)


def test_build_mask_freezes_least_reliable():
    spec = CodeSpec(8, 5)
    order = ga_reliabilities(spec, 2.0)
    mask = build_mask(spec, order)
    assert mask.frozen_count == 3
    assert set(np.flatnonzero(mask.bits)) == set(order.order[:3])
    # position 0 is always the worst channel
    assert mask.bits[0] == 1


def test_reliability_order_validation():
    with pytest.raises(InvalidArgument):
        ReliabilityOrder([0, 0, 1], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidArgument):
        ReliabilityOrder([2, 1, 0], [1.0, 2.0, 3.0])
    ReliabilityOrder([2, 1, 0], [3.0, 2.0, 1.0])


@given(st.integers(3, 5), st.integers(1, 3), st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_shuffled_masks_keep_rate(stages, r, seed):
    from polarlab.construction import _shuffled_mask, _window_bounds
    n = 1 << stages
    spec = CodeSpec(n, n // 2)
    order = ga_reliabilities(spec, 2.0)
    lo, hi = _window_bounds(spec, order, r)
    mask = _shuffled_mask(spec, order, lo, hi,
                          np.random.default_rng(seed))
    assert mask.frozen_count == n // 2
    # positions outside the shuffle window keep their baseline role
    base = build_mask(spec, order)
    outside = np.ones(n, dtype=bool)
    outside[order.order[lo:hi]] = False
    assert np.array_equal(mask.bits[outside], base.bits[outside])


def test_window_bounds_rejects_oversized_r():
    spec = CodeSpec(8, 4)
    order = ga_reliabilities(spec, 2.0)
    with pytest.raises(InvalidArgument):
        generate_dataset(spec, order, ShuffleConfig(5, 2), DecoderConfig("sc"),
                         ChannelConfig(2.0, 0.5), MonteCarloConfig(0, 1, 512))


def test_generate_dataset_unique_and_reproducible():
    spec = CodeSpec(16, 8)
    order = ga_reliabilities(spec, 2.0)
    shuffle = ShuffleConfig(2, 20, seed=3)
    dec = DecoderConfig("sc")
    ch = ChannelConfig(1.0, 0.5)
    mc = MonteCarloConfig(0, 5, 5000)
    a = generate_dataset(spec, order, shuffle, dec, ch, mc)
    b = generate_dataset(spec, order, shuffle, dec, ch, mc)
    assert len(a) >= 2
    seen = {rec.mask.bits.tobytes() for rec in a}
    assert len(seen) == len(a)  # masks deduplicated before simulation
    assert all(x.fer_estimate == y.fer_estimate for x, y in zip(a, b))
    assert all(np.array_equal(x.mask.bits, y.mask.bits) for x, y in zip(a, b))


def test_generate_dataset_reports_progress_for_skipped_masks(
        monkeypatch, caplog):
    """progress(i + 1, U) fires for every unique mask, a skipped one too,
    so a run whose last mask fails still reports U of U."""
    spec = CodeSpec(16, 8)
    order = ga_reliabilities(spec, 2.0)
    shuffle = ShuffleConfig(2, 3, seed=3)
    real_estimate = construction.estimate_fer
    calls = []

    def estimate(*args):
        calls.append(args)
        if len(calls) == 3:
            raise NumericError("injected failure")
        return real_estimate(*args)

    monkeypatch.setattr(construction, "estimate_fer", estimate)
    seen = []
    with caplog.at_level(logging.WARNING, logger="polarlab.construction"):
        records = generate_dataset(
            spec, order, shuffle, DecoderConfig("sc"), ChannelConfig(1.0, 0.5),
            MonteCarloConfig(0, 5, 5000),
            progress=lambda done, total: seen.append((done, total)))
    assert len(calls) == 3  # three unique masks for this seed
    assert seen == [(1, 3), (2, 3), (3, 3)]
    assert len(records) == 2
    assert "skipping mask 2" in caplog.text


def test_select_shuffle_range_prefers_largest_within_ratio():
    spec = CodeSpec(32, 16)
    order = ga_reliabilities(spec, 2.5)
    r = select_shuffle_range(spec, order, DecoderConfig("scl", 2),
                             ChannelConfig(2.5, 0.5), pilot_size=3,
                             candidate_rs=[2, 4], seed=1, max_frames=30_000)
    assert r in (2, 4)


def test_select_shuffle_range_is_the_same_at_any_worker_count():
    spec = CodeSpec(32, 16)
    order = ga_reliabilities(spec, 2.5)
    picks = [select_shuffle_range(spec, order, DecoderConfig("scl", 2),
                                  ChannelConfig(2.5, 0.5), pilot_size=3,
                                  candidate_rs=[2, 4, 6], seed=1,
                                  max_frames=30_000, workers=workers)
             for workers in (1, 2, 3)]
    assert picks[0] == picks[1] == picks[2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("pilots,workers,processes,threads", [
    (4, 1, None, 1),  # one worker: every pilot here, as given
    (1, 3, None, 3),  # one pilot: here, on all the threads
    (4, 2, 2, 1),
    (4, 3, 3, 1),
    (2, 3, 2, 1),     # workers // processes threads per estimate
    (2, 4, 2, 2),
])
def test_select_shuffle_range_splits_workers_into_processes_and_threads(
        monkeypatch, tmp_path, pilots, workers, processes, threads):
    """min(workers, pilots) processes, each pilot on workers // processes
    threads; one process or one pilot runs here on `workers` threads."""
    calls = tmp_path / "calls"
    real_estimate = construction.estimate_fer

    def estimate(spec, mask, decoder, channel, mc):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {mc.workers}\n")
        return real_estimate(spec, mask, decoder, channel,
                             MonteCarloConfig(mc.seed, 1, 64))

    pools = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(construction, "estimate_fer", estimate)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    spec = CodeSpec(16, 8)
    select_shuffle_range(spec, ga_reliabilities(spec, 2.0),
                         DecoderConfig("sc"), ChannelConfig(2.0, 0.5),
                         pilot_size=pilots, candidate_rs=[2], workers=workers)
    seen = [line.split() for line in calls.read_text().splitlines()]
    assert pools == ([] if processes is None else [processes])
    assert [int(w) for _, w in seen] == [threads] * pilots
    in_parent = {int(pid) == os.getpid() for pid, _ in seen}
    assert in_parent == {processes is None}
    assert multiprocessing.active_children() == []


def _dataset_inputs():
    spec = CodeSpec(16, 8)
    return (spec, ga_reliabilities(spec, 2.0), ShuffleConfig(2, 6, seed=3),
            DecoderConfig("scl", 2), ChannelConfig(1.5, 0.5))


def test_generate_dataset_is_the_same_at_any_worker_count():
    runs = [generate_dataset(*_dataset_inputs(),
                             MonteCarloConfig(4, 20, 20_000, workers))
            for workers in (1, 2, 3)]
    assert len(runs[0]) >= 4
    for records in runs[1:]:
        assert [r.fer_estimate for r in records] == \
            [r.fer_estimate for r in runs[0]]
        assert all(np.array_equal(a.mask.bits, b.mask.bits)
                   for a, b in zip(records, runs[0]))
    assert multiprocessing.active_children() == []


def test_generate_dataset_skips_a_failed_mask_in_a_pool_process(
        monkeypatch, caplog):
    """The parent logs the failure once and reports progress in mask
    order; the other masks' records are unchanged."""
    mc = MonteCarloConfig(4, 20, 20_000, workers=2)
    expected = generate_dataset(*_dataset_inputs(), mc)
    failing_seed = mc.derive(2).seed
    real_estimate = construction.estimate_fer

    def estimate(spec, mask, decoder, channel, mc):
        if mc.seed == failing_seed:
            raise NumericError("injected failure")
        return real_estimate(spec, mask, decoder, channel, mc)

    monkeypatch.setattr(construction, "estimate_fer", estimate)
    seen = []
    with caplog.at_level(logging.WARNING, logger="polarlab.construction"):
        records = generate_dataset(
            *_dataset_inputs(), mc,
            progress=lambda done, total: seen.append((done, total)))
    total = len(expected)
    assert seen == [(i + 1, total) for i in range(total)]
    assert [rec.getMessage() for rec in caplog.records] == [
        "skipping mask 2: simulation failed (injected failure)"]
    kept = expected[:2] + expected[3:]
    assert [r.fer_estimate for r in records] == \
        [r.fer_estimate for r in kept]
    assert all(np.array_equal(a.mask.bits, b.mask.bits)
               for a, b in zip(records, kept))


def test_generate_dataset_propagates_other_errors_from_a_pool_process(
        monkeypatch):
    mc = MonteCarloConfig(4, 20, 20_000, workers=2)
    failing_seed = mc.derive(1).seed
    real_estimate = construction.estimate_fer

    def estimate(spec, mask, decoder, channel, mc):
        if mc.seed == failing_seed:
            raise RuntimeError("not a simulation failure")
        return real_estimate(spec, mask, decoder, channel, mc)

    monkeypatch.setattr(construction, "estimate_fer", estimate)
    with pytest.raises(RuntimeError, match="not a simulation failure"):
        generate_dataset(*_dataset_inputs(), mc)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("pilot_size,candidate_rs,message", [
    (0, [2], "pilot_size"),
    (1, [-1, 2], "candidate r"),
    (1, [0], "candidate r"),
])
def test_select_shuffle_range_rejects_bad_pilots_before_simulating(
        monkeypatch, pilot_size, candidate_rs, message):
    def estimate(*args):
        raise AssertionError("a pilot ran")

    monkeypatch.setattr(construction, "estimate_fer", estimate)
    spec = CodeSpec(16, 8)
    with pytest.raises(InvalidArgument, match=message):
        select_shuffle_range(spec, ga_reliabilities(spec, 2.0),
                             DecoderConfig("sc"), ChannelConfig(2.0, 0.5),
                             pilot_size=pilot_size, candidate_rs=candidate_rs)


def test_shuffle_config_validation():
    with pytest.raises(InvalidArgument):
        ShuffleConfig(0, 5)
    with pytest.raises(InvalidArgument):
        ShuffleConfig(2, 0)
    with pytest.raises(InvalidArgument):
        select_shuffle_range(CodeSpec(8, 4), ga_reliabilities(CodeSpec(8, 4),
                                                              2.0),
                             DecoderConfig("sc"), ChannelConfig(2.0, 0.5),
                             pilot_size=1, candidate_rs=[4, 2])
