"""Acceptance gate: one test per shipped guarantee, each ending with a
single PASS line (visible with `pytest -s` or `-rP`).

The final guarantee — reproducing published-scale numbers — is a long-run
recipe in scripts/paper_scale_recipe.py, deliberately outside CI; the last
test only checks that the recipe ships and is documented.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import spearmanr

from polarlab.channel import (ChannelConfig, FerEstimate, MonteCarloConfig,
                              estimate_fer, transmit, _batch_rng)
from polarlab.codec import (CodeSpec, DecoderConfig, FrozenMask, encode,
                            polar_transform, sc_decode_batch,
                            scl_decode_batch)
from polarlab.construction import (DatasetRecord, ShuffleConfig, build_mask,
                                   ga_reliabilities, generate_dataset)
from polarlab.search import PgdConfig, search_and_validate
from polarlab.surrogate import (MlpConfig, TrainConfig, backward,
                                constant_predictor_ioe, init_params,
                                output_and_input_gradient, forward, train)


def _ga_mask(n, k, ebn0):
    spec = CodeSpec(n, k)
    return spec, build_mask(spec, ga_reliabilities(spec, ebn0))


def test_criterion_1_encoder_involution():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    for stages in range(1, 11):
        n = 1 << stages
        u = (rng.random((10_000, n)) < 0.5).astype(np.uint8)
        assert np.array_equal(polar_transform(polar_transform(u)), u)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: involution holds for 1e4 vectors per "
          f"N in 2..1024 ({elapsed:.1f}s)")


def test_criterion_2_scl1_equals_sc():
    start = time.monotonic()
    spec, mask = _ga_mask(128, 64, 2.0)
    rng = _batch_rng(2, 0)
    payload = (rng.random((10_000, 64)) < 0.5).astype(np.uint8)
    llrs = transmit(encode(spec, mask, payload), ChannelConfig(2.0, 0.5), rng)
    sc = sc_decode_batch(spec, mask, llrs)
    scl = scl_decode_batch(spec, mask, DecoderConfig("scl", 1), llrs)
    assert np.array_equal(sc, scl)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS: SCL(1) == SC bit-exact on 1e4 noisy "
          f"(128,64) frames ({elapsed:.1f}s)")


def test_criterion_3_full_list_scl_is_ml():
    start = time.monotonic()
    spec, mask = _ga_mask(8, 4, 1.0)
    cfg = DecoderConfig("scl", 16, exact=True)
    payloads = np.array([[b >> i & 1 for i in range(3, -1, -1)]
                         for b in range(16)], dtype=np.uint8)
    signs = 1.0 - 2.0 * encode(spec, mask, payloads)
    rng = _batch_rng(3, 0)
    tx = (rng.random((1000, 4)) < 0.5).astype(np.uint8)
    llrs = transmit(encode(spec, mask, tx), ChannelConfig(1.0, 0.5), rng)
    ml = payloads[np.argmax(llrs @ signs.T, axis=1)]
    out = scl_decode_batch(spec, mask, cfg, llrs)
    mismatches = int(np.any(out != ml, axis=1).sum())
    assert mismatches == 0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: exact-metric SCL(16) == ML on 1000 (8,4) "
          f"frames at 1 dB, 0 mismatches ({elapsed:.1f}s)")


def test_criterion_4_ga_fidelity():
    spec = CodeSpec(64, 32)
    order = ga_reliabilities(spec, 2.0)
    mask = build_mask(spec, order)  # genie mode decodes every position
    ch = ChannelConfig(2.0, 0.5)
    counts = np.zeros(64)
    frames = 100_000
    chunk = 20_000
    for b in range(frames // chunk):
        rng = _batch_rng(4, b)
        llrs = transmit(np.zeros((chunk, 64), dtype=np.uint8), ch, rng)
        counts += sc_decode_batch(spec, mask, llrs, exact=True,
                                  genie_zero=True).sum(axis=0)
    err_rates = counts / frames
    rho = spearmanr(order.reliabilities, -err_rates).statistic
    assert rho > 0.9, rho

    violations = 0
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        rel = ga_reliabilities(CodeSpec(n, n // 2), 2.0).reliabilities
        idx = np.arange(n)
        for i in range(n):
            dominated = (idx & i) == i
            violations += int(np.sum(rel[dominated] < rel[i] * (1 - 1e-12)))
    assert violations == 0
    print(f"\nACCEPTANCE 4 PASS: GA vs genie Spearman rho={rho:.3f} > 0.9; "
          f"binary-domination violations 0 for N <= 256")


def test_criterion_5_gradient_suite():
    rng = np.random.default_rng(5)
    worst_overall = 0.0
    checked = 0
    for trial in range(22):
        L = int(rng.integers(1, 8))
        H = int(rng.integers(4, 24))
        G = int(rng.integers(1, max(2, L)))
        cfg = MlpConfig(L, H, G)
        d = int(rng.integers(3, 10))
        params = init_params(cfg, d, rng)
        for b in params.biases:
            b += rng.normal(0, 0.1, b.shape)  # avoid exact ReLU kinks
        x = rng.normal(0, 1, (6, d))
        target = rng.normal(0, 1, 6)
        _, grads, d_in = backward(cfg, params, x, target)
        eps = 1e-6
        worst = 0.0
        for t, g in zip(params.trainables(), grads):
            flat, gf = t.reshape(-1), g.reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size),
                                  replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                hi, _, _ = backward(cfg, params, x, target)
                flat[idx] = orig - eps
                lo, _, _ = backward(cfg, params, x, target)
                flat[idx] = orig
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(fd), abs(gf[idx]), 1e-6)
                worst = max(worst, abs(fd - gf[idx]) / denom)
        # input gradient of the raw output
        x0 = rng.normal(0, 1, d)
        _, gi = output_and_input_gradient(cfg, params, x0)
        for i in range(d):
            xp, xm = x0.copy(), x0.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = (forward(cfg, params, xp) - forward(cfg, params, xm)) \
                / (2 * eps)
            denom = max(abs(fd), abs(gi[i]), 1e-6)
            worst = max(worst, abs(fd - gi[i]) / denom)
        assert worst < 1e-4, (L, H, G, worst)
        worst_overall = max(worst_overall, worst)
        checked += 1
    assert checked >= 20
    print(f"\nACCEPTANCE 5 PASS: {checked} random (L,H,G) configs, worst "
          f"gradient rel. err {worst_overall:.2e} < 1e-4")


def test_criterion_6_monte_carlo_correctness():
    spec = CodeSpec(1, 1)
    mask = FrozenMask(np.zeros(1, dtype=np.uint8))
    dec = DecoderConfig("sc")
    zs = []
    for ebn0 in (2.0, 4.0):
        frames = 150_000
        mc = MonteCarloConfig(6, 10**9, frames)
        est = estimate_fer(spec, mask, dec, ChannelConfig(ebn0, 1.0), mc)
        p = 0.5 * erfc(math.sqrt(10 ** (ebn0 / 10.0)))
        sigma = math.sqrt(p * (1 - p) / frames)
        z = (est.fer - p) / sigma
        assert abs(z) < 3.0, (ebn0, z)
        zs.append(z)

    spec2, mask2 = _ga_mask(64, 32, 2.5)
    rows = []
    for w in (1, 4, 8):
        est = estimate_fer(spec2, mask2, DecoderConfig("scl", 2),
                           ChannelConfig(2.5, 0.5),
                           MonteCarloConfig(7, 100, 100_000, workers=w))
        rows.append(f"{est.fer!r},{est.frames},{est.frame_errors}".encode())
    assert rows[0] == rows[1] == rows[2]
    print(f"\nACCEPTANCE 6 PASS: uncoded BER z-scores {zs[0]:+.2f}/"
          f"{zs[1]:+.2f} within 3 sigma; workers 1/4/8 byte-identical")


def test_criterion_7_surrogate_learns_synthetic_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    n = 64
    w = rng.normal(0, 0.3, n)
    records = []
    for _ in range(800):
        bits = np.zeros(n, dtype=np.uint8)
        bits[:8] = 1  # constant coordinates exercise the standardizer
        bits[8 + rng.permutation(n - 12)[:24]] = 1
        log_fer = min(-0.2, float(w @ bits) + rng.normal(0, 0.01))
        frames = 10**9
        errors = max(1, int(round(np.exp(log_fer) * frames)))
        records.append(DatasetRecord(
            FrozenMask(bits), FerEstimate.from_counts(errors, frames, 2.0)))
    chance = constant_predictor_ioe(records).average_ioe
    _, _, report = train(records, 0.8, MlpConfig(3, 128, 3),
                         TrainConfig(epochs=300, seed=1))
    ratio = report.average_ioe / chance
    elapsed = time.monotonic() - start
    assert ratio <= 0.20, ratio
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 7 PASS: synthetic-oracle IOE {report.average_ioe:.3f}"
          f" = {100 * ratio:.1f}% of chance {chance:.3f} ({elapsed:.0f}s)")


def test_criterion_8_end_to_end_pipeline():
    start = time.monotonic()
    spec = CodeSpec(64, 32)
    ebn0 = 3.2
    order = ga_reliabilities(spec, ebn0)
    decoder = DecoderConfig("scl", 4)
    ch = ChannelConfig(ebn0, spec.rate)

    baseline = estimate_fer(spec, build_mask(spec, order), decoder, ch,
                            MonteCarloConfig(0, 200, 200_000, workers=4))
    assert 3e-3 < baseline.fer < 3e-2  # "about 1e-2"

    records = generate_dataset(
        spec, order, ShuffleConfig(range_r=7, count_d=620, seed=5), decoder,
        ch, MonteCarloConfig(5, 50, 100_000, workers=4))
    assert len(records) >= 500
    fers = np.array([r.fer_estimate.fer for r in records])
    ratio = fers.max() / fers.min()
    assert 5.0 <= ratio <= 20.0, ratio

    params, standardizer, report = train(
        records, 0.8, MlpConfig(3, 128, 3), TrainConfig(epochs=300, seed=1))
    chance = constant_predictor_ioe(records).average_ioe
    assert report.average_ioe < 0.30, report.average_ioe
    assert report.average_ioe < chance

    reports = search_and_validate(
        params, standardizer,
        PgdConfig(iterations_i=5000, step_mu=0.1, restarts=32, seed=9,
                  top_k=4),
        spec, decoder, ch, MonteCarloConfig(9, 300, 600_000, workers=4),
        build_mask(spec, order))
    best = reports[0]
    assert best.validated is not None

    best_rec = min(records, key=lambda r: r.fer_estimate.fer).fer_estimate
    se_best = math.sqrt(best_rec.fer * (1 - best_rec.fer) / best_rec.frames)
    cand = best.validated
    se_cand = math.sqrt(cand.fer * (1 - cand.fer) / cand.frames)
    # one-sided 95% test of: candidate FER <= 1.1 x best dataset FER
    margin = cand.fer - 1.1 * best_rec.fer
    bound = 1.645 * math.sqrt(se_cand ** 2 + 1.21 * se_best ** 2)
    assert margin <= bound, (cand.fer, best_rec.fer, margin, bound)

    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    print(f"\nACCEPTANCE 8 PASS: {len(records)} masks (ratio {ratio:.1f}), "
          f"val IOE {report.average_ioe:.3f} (chance {chance:.3f}), "
          f"candidate FER {cand.fer:.2e} vs best dataset "
          f"{best_rec.fer:.2e} ({elapsed:.0f}s)")


def test_criterion_9_long_run_recipe_ships():
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    recipe = root / "scripts" / "paper_scale_recipe.py"
    assert recipe.is_file()
    text = recipe.read_text()
    assert "256" in text and "def main" in text
    readme = (root / "README.md").read_text()
    assert "paper_scale_recipe" in readme
    print("\nACCEPTANCE 9 PASS: long-run (256,128) recipe ships in "
          "scripts/paper_scale_recipe.py (documented, not run in CI)")
