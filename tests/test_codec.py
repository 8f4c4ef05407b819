"""Codec tests: encoding against the Kronecker-matrix oracle, SC hand
traces, SCL list semantics, and ML equivalence on a small code."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlab import codec
from polarlab.codec import (_KEY_SORT_MIN_WIDTH, CodeSpec, DecoderConfig,
                            FrozenMask, _f_min_sum, _g, _select, decode_batch,
                            encode, genie_leaf_llrs, polar_transform,
                            sc_decode_batch, scl_decode_batch)
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
    with pytest.raises(InvalidArgument):  # SC has no list
        DecoderConfig("sc", 4, "exact")
    with pytest.raises(InvalidArgument):
        DecoderConfig("scl", 0)
    assert DecoderConfig("sc").list_size == 1


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


# LLR values where the sign-bit f and g could part from the float formulas:
# signed zeros, subnormals, products that underflow or overflow, and equal
# magnitudes of either sign
EDGE_LLRS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-200,
                      -1e-200, 1e308, -1e308, 1.7976931348623157e308, 1.5,
                      -1.5, 3.0, -3.0, 0.75])


def reference_f(a, b):
    with np.errstate(over="ignore", under="ignore"):
        return np.copysign(np.minimum(np.abs(a), np.abs(b)), a * b)


def reference_g(a, b, u):
    with np.errstate(over="ignore"):
        return b + (1.0 - 2.0 * u) * a


def assert_same_bits(x, y):
    assert x.shape == y.shape
    assert np.array_equal(x.view(np.int64), y.view(np.int64))


def test_node_functions_match_reference_bits_on_edge_grid():
    a, b = (v.reshape(16, 4, 4) for v in np.meshgrid(EDGE_LLRS, EDGE_LLRS))
    assert_same_bits(_f_min_sum(a, b), reference_f(a, b))
    for u in (np.zeros(a.shape, np.uint8), np.ones(a.shape, np.uint8),
              (np.arange(a.size) % 3 == 0).astype(np.uint8).reshape(a.shape)):
        with np.errstate(over="ignore"):
            assert_same_bits(_g(a, b, u), reference_g(a, b, u))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_node_functions_match_reference_bits_on_decoder_shapes(seed):
    # the operands the decoders pass: halves of one (2h, B, P) level, or of
    # a (2h, B, 1) level every path shares, with (h, B, P) partial sums
    rng = np.random.default_rng(seed)
    h, B, P = 1 << int(rng.integers(0, 4)), 3, 4
    vals = np.where(rng.random((2 * h, B, P)) < 0.3,
                    rng.choice(EDGE_LLRS, (2 * h, B, P)),
                    rng.normal(0, 4, (2 * h, B, P)))
    u = (rng.random((h, B, P)) < 0.5).astype(np.uint8)
    for blk in (vals, vals[:, :, :1].copy()):
        a, b = blk[:h], blk[h:]
        assert_same_bits(_f_min_sum(a, b), reference_f(a, b))
        with np.errstate(over="ignore"):
            assert_same_bits(_g(a, b, u), reference_g(a, b, u))
    # a path-wide operand against a shared one
    a, b = vals[:h], vals[h:, :, :1]
    assert_same_bits(_f_min_sum(a, b), reference_f(a, b))


def test_sc_hand_trace_n2():
    # leaf 0 sees f(-1, 3) = min-sum -1 -> frozen, forced to 0;
    # leaf 1 then sees g(-1, 3, 0) = 2 > 0 -> payload bit 0
    spec = CodeSpec(2, 1)
    mask = FrozenMask([1, 0])
    out = sc_decode_batch(spec, mask, np.array([[-1.0, 3.0]]))
    assert np.array_equal(out, [[0]])
    # flip: g(-1, 3, 0) still positive, but stronger negative channel 1
    out = sc_decode_batch(spec, mask, np.array([[1.0, -3.0]]))
    assert np.array_equal(out, [[1]])


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


def test_decode_batch_dispatch():
    spec = CodeSpec(8, 4)
    mask = FrozenMask([1, 1, 1, 0, 1, 0, 0, 0])
    rng = np.random.default_rng(2)
    llrs = rng.normal(1, 1, (10, 8))
    sc_cfg = DecoderConfig("sc", node_mode="exact_f")
    assert np.array_equal(decode_batch(spec, mask, sc_cfg, llrs),
                          sc_decode_batch(spec, mask, llrs, "exact_f"))
    scl_cfg = DecoderConfig("scl", 4)
    assert np.array_equal(decode_batch(spec, mask, scl_cfg, llrs),
                          scl_decode_batch(spec, mask, scl_cfg, llrs))


def test_decoders_reject_nonfinite_llrs():
    spec = CodeSpec(4, 2)
    mask = FrozenMask([1, 1, 0, 0])
    # non-finite values, and a 1-D array where a (B, N) batch is expected
    for bad in (np.array([[1.0, np.inf, 0.0, -1.0]]),
                np.array([1.0, 2.0, 0.0, -1.0])):
        with pytest.raises(InvalidArgument):
            sc_decode_batch(spec, mask, bad)
        with pytest.raises(InvalidArgument):
            scl_decode_batch(spec, mask, DecoderConfig("scl", 2), bad)
        with pytest.raises(InvalidArgument):
            genie_leaf_llrs(spec, bad)
    with pytest.raises(InvalidArgument):  # 8 LLRs per frame for N=4
        genie_leaf_llrs(spec, np.ones((2, 8)))


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


# ---------------------------------------------------------------------------
# fork selection: _select against the stable argsort it replaces

# NaNs with the lowest and the highest payload; argsort puts every NaN,
# whatever its sign and payload, last and in column order
OTHER_NANS = list(np.array([0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF],
                           np.int64).view(np.float64))
SELECT_VALUES = np.array([
    0.0, -0.0, 5e-324, 1e-300, 1.0, np.nextafter(1.0, 2.0),
    np.nextafter(np.nextafter(1.0, 2.0), 2.0), np.nextafter(1.0, 0.0), 2.5,
    np.nextafter(2.5, 3.0), 7.0, 1e308, np.finfo(np.float64).max, np.inf,
    np.nan, np.copysign(np.nan, -1.0), *OTHER_NANS])  # x86: -NaN = inf - inf
# widths 2P from 2 to 64, on both sides of the key-sort threshold
SELECT_LISTS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 24, 31, 32]


def stable_argsort(cand, P):
    return np.argsort(cand, axis=1, kind="stable")[:, :P]


def select_rows(rng, P, B=24):
    """Rows of 2P candidates drawn as a decoder could see them, plus the
    hard cases: exact ties, values one ulp apart, +inf runs, 0.0, NaNs."""
    W = 2 * P
    rows = [np.cumsum(rng.exponential(size=W))[rng.permutation(W)],
            np.round(rng.exponential(size=W) * 2) / 2,
            np.full(W, 1.0),
            np.nextafter(1.0, 2.0 + np.arange(W) % 3),
            np.where(np.arange(W) < 2, rng.exponential(size=W), np.inf),
            np.where(np.arange(W) % 2, np.inf, 0.0)]
    # NaNs of distinct payloads, without and with the sign bit
    payloads = rng.integers(1, 1 << 52, W)
    rows += [(payloads | 0x7FF << 52).view(np.float64),
             (payloads | -1 << 52).view(np.float64)]
    while len(rows) < B:
        rows.append(np.where(rng.random(W) < 0.5,
                             rng.choice(SELECT_VALUES, W),
                             np.cumsum(rng.exponential(size=W))))
    return np.array(rows)


@pytest.mark.parametrize("P", SELECT_LISTS)
def test_select_matches_stable_argsort_on_grid(P):
    assert 2 * SELECT_LISTS[0] < _KEY_SORT_MIN_WIDTH <= 2 * SELECT_LISTS[-1]
    cand = select_rows(np.random.default_rng(P), P)
    assert np.array_equal(_select(cand, P), stable_argsort(cand, P))
    # and each value next to its neighbours one ulp away, or exactly tied
    base = np.repeat(np.array([0.0, 1.0, 3.0, 1e300]), 2 * P // 4 + 1)[:2 * P]
    for cand in (np.stack([base, np.nextafter(base, np.inf)[::-1],
                           np.sort(base)[::-1]]),
                 np.nextafter(np.tile(base, (3, 1)), np.inf)):
        assert np.array_equal(_select(cand, P), stable_argsort(cand, P))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 32), st.integers(0, 2**32 - 1))
def test_select_matches_stable_argsort(P, seed):
    rng = np.random.default_rng(seed)
    W = 2 * P
    base = rng.choice(SELECT_VALUES, (8, W))
    ulps = rng.integers(-2, 3, (8, W))  # shift finite values by 0-2 ulp
    near = base.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            near = np.where(ulps > 0, np.nextafter(near, np.inf), near)
            near = np.where(ulps < 0, np.nextafter(near, 0.0), near)
            ulps -= np.sign(ulps)
    finite_metrics = np.cumsum(rng.exponential(size=(8, W)), axis=1)
    cand = np.concatenate([base, near, finite_metrics,
                           np.round(finite_metrics)])
    assert np.array_equal(_select(cand, P), stable_argsort(cand, P))


@pytest.mark.parametrize("list_size", [8, 16, 32])
@pytest.mark.parametrize("llr_kind", ["integer", "decimal", "huge"])
def test_scl_paths_match_stable_argsort_selection(list_size, llr_kind,
                                                  monkeypatch):
    # integer LLRs tie metrics exactly; LLRs rounded to 0.1 give metrics
    # that differ in their last bits only, as sums in another order; and
    # +-1e308 LLRs overflow g to +-inf and then NaN
    rng = np.random.default_rng(list_size)
    spec = CodeSpec(64, 32)
    bits = np.zeros(64, dtype=np.uint8)
    bits[rng.permutation(64)[:32]] = 1
    mask = FrozenMask(bits)
    cfg = DecoderConfig("scl", list_size)
    x = 1.0 - 2.0 * encode(spec, mask, rng.integers(0, 2, (64, 32)))
    noisy = x + rng.normal(0, 0.9, x.shape)
    llrs = {"integer": np.round(2 * noisy), "decimal": np.round(2 * noisy, 1),
            "huge": np.where(noisy < 0, -1e308, 1e308)}[llr_kind]
    with np.errstate(over="ignore", invalid="ignore"):
        got = scl_decode_batch(spec, mask, cfg, llrs)
        monkeypatch.setattr(codec, "_select", stable_argsort)
        want = scl_decode_batch(spec, mask, cfg, llrs)
    assert np.array_equal(got, want)
