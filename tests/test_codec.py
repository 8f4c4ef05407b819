"""Codec tests: encoding against the Kronecker-matrix oracle, SC hand
traces, SCL list semantics, and ML equivalence on a small code."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlab.codec import (CodeSpec, DecoderConfig, FrozenMask, LlrFrame,
                            decode_batch, encode, genie_leaf_llrs,
                            polar_transform, sc_decode, sc_decode_batch,
                            scl_decode, scl_decode_batch)
from polarlab.errors import InvalidArgument


def kron_matrix(n: int) -> np.ndarray:
    """Independent oracle: explicit F^{(x)log2 n} over GF(2)."""
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    while g.shape[0] < n:
        g = np.kron(g, f) % 2
    return g


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_transform_matches_kronecker_matrix(n):
    rng = np.random.default_rng(n)
    u = (rng.random((64, n)) < 0.5).astype(np.uint8)
    expected = (u @ kron_matrix(n)) % 2
    assert np.array_equal(polar_transform(u), expected)


@given(st.integers(0, 9), st.integers(0, 2**32 - 1))
def test_transform_is_involution(log_n, seed):
    n = 1 << log_n
    u = (np.random.default_rng(seed).random(n) < 0.5).astype(np.uint8)
    assert np.array_equal(polar_transform(polar_transform(u)), u)


def test_transform_rejects_non_power_of_two():
    with pytest.raises(InvalidArgument):
        polar_transform(np.zeros(6, dtype=np.uint8))


def test_codespec_validation():
    with pytest.raises(InvalidArgument):
        CodeSpec(48, 24)
    with pytest.raises(InvalidArgument):
        CodeSpec(8, 8)
    with pytest.raises(InvalidArgument):
        CodeSpec(8, 0)
    with pytest.raises(InvalidArgument):
        CodeSpec(1, 0)
    assert CodeSpec(1, 1).rate == 1.0  # uncoded bypass
    assert CodeSpec(256, 128).stages == 8


def test_encode_n2_exhaustive():
    # (2,1) with position 0 frozen: payload u1 -> codeword (u1, u1)
    spec = CodeSpec(2, 1)
    mask = FrozenMask([1, 0])
    assert np.array_equal(encode(spec, mask, [0]), [0, 0])
    assert np.array_equal(encode(spec, mask, [1]), [1, 1])


def test_encode_frozen_positions_force_zero_input():
    spec = CodeSpec(8, 4)
    mask = FrozenMask([1, 1, 1, 0, 1, 0, 0, 0])
    payload = np.array([1, 0, 1, 1], dtype=np.uint8)
    codeword = encode(spec, mask, payload)
    u = polar_transform(codeword)  # involution recovers the u vector
    assert np.array_equal(u[mask.bits == 1], [0, 0, 0, 0])
    assert np.array_equal(u[mask.bits == 0], payload)


def test_encode_rejects_wrong_payload_length():
    with pytest.raises(InvalidArgument):
        encode(CodeSpec(4, 2), FrozenMask([1, 1, 0, 0]), [1])


def test_mask_validate_for():
    with pytest.raises(InvalidArgument):
        FrozenMask([1, 0, 0, 0]).validate_for(CodeSpec(4, 2))
    with pytest.raises(InvalidArgument):
        FrozenMask([1, 1]).validate_for(CodeSpec(4, 2))
    FrozenMask([1, 1, 0, 0]).validate_for(CodeSpec(4, 2))


def test_sc_hand_trace_n2():
    # leaf 0 sees f(-1, 3) = min-sum -1 -> frozen, forced to 0;
    # leaf 1 then sees g(-1, 3, 0) = 2 > 0 -> payload bit 0
    spec = CodeSpec(2, 1)
    mask = FrozenMask([1, 0])
    out = sc_decode(spec, mask, LlrFrame(np.array([-1.0, 3.0])))
    assert np.array_equal(out, [0])
    # flip: g(-1, 3, 0) still positive, but stronger negative channel 1
    out = sc_decode(spec, mask, LlrFrame(np.array([1.0, -3.0])))
    assert np.array_equal(out, [1])


@pytest.mark.parametrize("node_mode", ["min_sum_f", "exact_f"])
def test_sc_noiseless_roundtrip(node_mode):
    spec = CodeSpec(32, 16)
    rng = np.random.default_rng(3)
    bits = np.zeros(32, dtype=np.uint8)
    bits[rng.permutation(32)[:16]] = 1
    mask = FrozenMask(bits)
    payload = (rng.random((50, 16)) < 0.5).astype(np.uint8)
    llrs = 10.0 * (1.0 - 2.0 * encode(spec, mask, payload))
    out = sc_decode_batch(spec, mask, llrs, node_mode)
    assert np.array_equal(out, payload)


@pytest.mark.parametrize("node_mode", ["min_sum_f", "exact_f"])
@pytest.mark.parametrize("metric_mode", ["approximate", "exact"])
def test_scl1_equals_sc(node_mode, metric_mode):
    spec = CodeSpec(64, 32)
    rng = np.random.default_rng(11)
    bits = np.zeros(64, dtype=np.uint8)
    bits[rng.permutation(64)[:32]] = 1
    mask = FrozenMask(bits)
    llrs = rng.normal(0, 2, (200, 64))
    cfg = DecoderConfig("scl", 1, metric_mode, node_mode)
    assert np.array_equal(scl_decode_batch(spec, mask, cfg, llrs),
                          sc_decode_batch(spec, mask, llrs, node_mode))


@pytest.mark.parametrize("n,k,list_size,mask_seed", [
    (8, 4, 16, None),  # the fixed [1,1,1,0,1,0,0,0] mask
    (4, 2, 4, 1),
    (8, 4, 16, 2),
    (16, 6, 64, 3),
    (16, 8, 256, 4),
    # more slots than codewords: spare slots keep an inf metric while their
    # (meaningless) state is re-pointed at every fork
    (8, 3, 32, 5),
], ids=lambda v: "fixed" if v is None else str(v))
def test_scl_full_list_exact_metric_is_ml(n, k, list_size, mask_seed):
    """With list size >= 2^K and exact metrics/nodes SCL enumerates every
    codeword, so it must agree with brute-force ML."""
    spec = CodeSpec(n, k)
    if mask_seed is None:
        mask = FrozenMask([1, 1, 1, 0, 1, 0, 0, 0])
    else:
        bits = np.ones(n, dtype=np.uint8)
        bits[np.random.default_rng(mask_seed).permutation(n)[:k]] = 0
        mask = FrozenMask(bits)
    cfg = DecoderConfig("scl", list_size, "exact", "exact_f")
    payloads = np.array(list(itertools.product([0, 1], repeat=k)),
                        dtype=np.uint8)
    books = encode(spec, mask, payloads)  # (2^K, N)
    signs = 1.0 - 2.0 * books
    rng = np.random.default_rng(17)
    llrs = rng.normal(0.5, 2.0, (300, n))
    # ML maximizes sum llr * (1 - 2c); ties go to the lexicographically
    # first codeword, which SCL's stable pruning also prefers
    scores = llrs @ signs.T
    ml = payloads[np.argmax(scores, axis=1)]
    out = scl_decode_batch(spec, mask, cfg, llrs)
    assert np.array_equal(out, ml)


def test_scl_fer_improves_with_list_size():
    from polarlab.construction import build_mask, ga_reliabilities
    spec = CodeSpec(64, 32)
    mask = build_mask(spec, ga_reliabilities(spec, 2.5))
    rng = np.random.default_rng(23)
    payload = (rng.random((1500, 32)) < 0.5).astype(np.uint8)
    sigma2 = 1.0 / (2.0 * 0.5 * 10 ** 0.25)  # 2.5 dB, rate 1/2
    noisy = 1.0 - 2.0 * encode(spec, mask, payload) \
        + rng.normal(0, np.sqrt(sigma2), (1500, 64))
    fers = []
    for lst in (1, 8):
        cfg = DecoderConfig("scl", lst)
        out = scl_decode_batch(spec, mask, cfg, 2.0 * noisy / sigma2)
        fers.append(np.any(out != payload, axis=1).mean())
    # a larger list clearly helps (nearby sizes can tie within noise)
    assert fers[1] < fers[0]


def test_genie_leaf_llrs_matches_sc_genie_mode():
    spec = CodeSpec(16, 8)
    mask = FrozenMask(np.array([1] * 8 + [0] * 8, dtype=np.uint8))
    rng = np.random.default_rng(5)
    llrs = rng.normal(1.5, 1.0, (128, 16))  # all-zero codeword channel
    fast = genie_leaf_llrs(spec, llrs) < 0
    slow = sc_decode_batch(spec, mask, llrs, "exact_f", genie_zero=True)
    assert np.array_equal(fast.astype(np.uint8), slow)


def test_decode_batch_dispatch_and_wrappers():
    spec = CodeSpec(8, 4)
    mask = FrozenMask([1, 1, 1, 0, 1, 0, 0, 0])
    rng = np.random.default_rng(2)
    llrs = rng.normal(1, 1, (10, 8))
    sc_cfg = DecoderConfig("sc")
    assert np.array_equal(decode_batch(spec, mask, sc_cfg, llrs),
                          sc_decode_batch(spec, mask, llrs))
    scl_cfg = DecoderConfig("scl", 4)
    single = scl_decode(spec, mask, scl_cfg, LlrFrame(llrs[0]))
    assert np.array_equal(single,
                          scl_decode_batch(spec, mask, scl_cfg, llrs)[0])
    with pytest.raises(InvalidArgument):
        scl_decode(spec, mask, sc_cfg, LlrFrame(llrs[0]))


def test_decoders_reject_nonfinite_llrs():
    spec = CodeSpec(4, 2)
    mask = FrozenMask([1, 1, 0, 0])
    bad = np.array([[1.0, np.inf, 0.0, -1.0]])
    with pytest.raises(InvalidArgument):
        sc_decode_batch(spec, mask, bad)
    with pytest.raises(InvalidArgument):
        scl_decode_batch(spec, mask, DecoderConfig("scl", 2), bad)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_scl_noiseless_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    spec = CodeSpec(16, 8)
    bits = np.zeros(16, dtype=np.uint8)
    bits[rng.permutation(16)[:8]] = 1
    mask = FrozenMask(bits)
    payload = (rng.random((4, 8)) < 0.5).astype(np.uint8)
    llrs = 8.0 * (1.0 - 2.0 * encode(spec, mask, payload))
    cfg = DecoderConfig("scl", 4)
    assert np.array_equal(scl_decode_batch(spec, mask, cfg, llrs), payload)
