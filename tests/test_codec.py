"""Codec tests: encoding against the Kronecker-matrix oracle, SC hand
traces, SCL list semantics, ML equivalence on a small code, and the SCL
node schedule against the leaf walk."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarlab import codec
from polarlab.codec import (_KEY_SORT_MIN_WIDTH, CodeSpec, DecoderConfig,
                            FrozenMask, _checked_llrs, _compile, _f_min_sum,
                            _g, _scl_walk, _select, decode_batch, encode,
                            polar_transform, sc_decode_batch,
                            scl_decode_batch)
from polarlab.construction import build_mask, ga_reliabilities
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


# LLR values where the sign-bit f and g could part from the float formulas,
# at each decoder width: signed zeros, subnormals, products that underflow
# or overflow, the largest finite value, and equal magnitudes of either sign
EDGE_LLRS = {
    np.float64: np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308,
                          1e-200, -1e-200, 1e308, -1e308,
                          1.7976931348623157e308, 1.5, -1.5, 3.0, -3.0, 0.75]),
    np.float32: np.array([0.0, -0.0, 1e-45, -1e-45, 1e-40, -1.1e-38, 1e-25,
                          -1e-25, 1e38, -1e38, 3.4028235e38, 1.5, -1.5, 3.0,
                          -3.0, 0.75], np.float32),
}


def reference_f(a, b):
    with np.errstate(over="ignore", under="ignore"):
        return np.copysign(np.minimum(np.abs(a), np.abs(b)), a * b)


def reference_g(a, b, u):
    with np.errstate(over="ignore"):
        return b + (1 - 2 * u.astype(a.dtype)) * a


def assert_same_bits(x, y):
    assert x.shape == y.shape and x.dtype == y.dtype
    bits = f"i{x.dtype.itemsize}"
    assert np.array_equal(x.view(bits), y.view(bits))


def test_node_functions_match_reference_bits_on_edge_grid():
    for dtype, edge in EDGE_LLRS.items():
        a, b = (v.reshape(16, 4, 4) for v in np.meshgrid(edge, edge))
        assert a.dtype == dtype
        assert_same_bits(_f_min_sum(a, b), reference_f(a, b))
        for u in (np.zeros(a.shape, np.uint8), np.ones(a.shape, np.uint8),
                  (np.arange(a.size) % 3 == 0).astype(np.uint8).reshape(
                      a.shape)):
            with np.errstate(over="ignore"):
                assert_same_bits(_g(a, b, u), reference_g(a, b, u))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_node_functions_match_reference_bits_on_decoder_shapes(seed):
    # the operands the decoders pass: halves of one (2h, B, P) level, or of
    # a (2h, B, 1) level every path shares, with (h, B, P) partial sums
    rng = np.random.default_rng(seed)
    h, B, P = 1 << int(rng.integers(0, 4)), 3, 4
    for dtype, edge in EDGE_LLRS.items():
        vals = np.where(rng.random((2 * h, B, P)) < 0.3,
                        rng.choice(edge, (2 * h, B, P)),
                        rng.normal(0, 4, (2 * h, B, P)).astype(dtype))
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
    # non-finite values, a 1-D array where a (B, N) batch is expected, and
    # 8 LLRs per frame for N=4
    for bad in (np.array([[1.0, np.inf, 0.0, -1.0]]),
                np.array([1.0, 2.0, 0.0, -1.0]), np.ones((2, 8))):
        with pytest.raises(InvalidArgument):
            sc_decode_batch(spec, mask, bad)
        with pytest.raises(InvalidArgument):
            scl_decode_batch(spec, mask, DecoderConfig("scl", 2), bad)


def test_decoder_width_and_its_llr_range():
    # the approximate min-sum decoders run in float32 and reject finite
    # LLRs float32 cannot hold; the others run in float64 and decode them
    spec = CodeSpec(8, 4)
    mask = FrozenMask([1, 1, 1, 0, 1, 0, 0, 0])
    payload = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
    sign = 1.0 - 2.0 * encode(spec, mask, payload)
    limit = float(np.finfo(np.float32).max)
    float32 = [DecoderConfig("sc"), DecoderConfig("scl", 1),
               DecoderConfig("scl", 4)]
    float64 = [DecoderConfig("sc", node_mode="exact_f"),
               DecoderConfig("scl", 4, "approximate", "exact_f"),
               DecoderConfig("scl", 4, "exact", "min_sum_f"),
               DecoderConfig("scl", 4, "exact", "exact_f")]
    for cfg in float32:
        assert cfg.dtype == np.float32
        with np.errstate(over="ignore", invalid="ignore"):  # g overflows
            assert decode_batch(spec, mask, cfg, limit * sign).shape == (2, 4)
        for big in (1e39, -1e39):
            llrs = sign.copy()
            llrs[1, 3] = big
            with pytest.raises(InvalidArgument, match="3.4028235e\\+38"):
                decode_batch(spec, mask, cfg, llrs)
    for cfg in float64:
        assert cfg.dtype == np.float64
        assert np.array_equal(decode_batch(spec, mask, cfg, 1e39 * sign),
                              payload)


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

# the candidate metrics of a fork at each decoder width: zeros, the
# smallest subnormal, values one ulp apart, the largest finite value, +inf
# and NaNs of either sign, among them (last two) those with the lowest and
# the highest payload; argsort puts every NaN, whatever its sign and
# payload, last and in column order
def _nans(dtype, payloads):
    bits = np.array(payloads, f"i{np.dtype(dtype).itemsize}")
    return list((bits | np.array(np.inf, dtype).view(bits.dtype)).view(dtype))


SELECT_VALUES = {
    np.float64: np.array([
        0.0, -0.0, 5e-324, 1e-300, 1.0, np.nextafter(1.0, 2.0),
        np.nextafter(np.nextafter(1.0, 2.0), 2.0), np.nextafter(1.0, 0.0),
        2.5, np.nextafter(2.5, 3.0), 7.0, 1e308, np.finfo(np.float64).max,
        np.inf, np.nan, np.copysign(np.nan, -1.0),  # x86: -NaN = inf - inf
        *_nans(np.float64, [1, (1 << 52) - 1])]),
}
_ONE32, _TWO32 = np.float32(1.0), np.float32(2.0)
SELECT_VALUES[np.float32] = np.array([
    0.0, -0.0, 1e-45, 1e-38, 1.0, np.nextafter(_ONE32, _TWO32),
    np.nextafter(np.nextafter(_ONE32, _TWO32), _TWO32),
    np.nextafter(_ONE32, np.float32(0.0)), 2.5,
    np.nextafter(np.float32(2.5), np.float32(3.0)), 7.0, 1e38,
    np.finfo(np.float32).max, np.inf, np.nan, np.copysign(np.nan, -1.0),
    *_nans(np.float32, [1, (1 << 23) - 1])], np.float32)
# widths 2P from 2 to 64, on both sides of the key-sort threshold
SELECT_LISTS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 24, 31, 32]


def stable_argsort(cand, P):
    return np.argsort(cand, axis=1, kind="stable")[:, :P]


def select_rows(rng, P, dtype=np.float64, B=24):
    """Rows of 2P candidates drawn as a decoder could see them, plus the
    hard cases: exact ties, values one ulp apart, +inf runs, 0.0, NaNs."""
    W = 2 * P
    rows = [np.cumsum(rng.exponential(size=W))[rng.permutation(W)],
            np.round(rng.exponential(size=W) * 2) / 2,
            np.full(W, 1.0),
            np.nextafter(np.ones(W, dtype), (2.0 + np.arange(W) % 3).astype(
                dtype)),
            np.where(np.arange(W) < 2, rng.exponential(size=W), np.inf),
            np.where(np.arange(W) % 2, np.inf, 0.0)]
    # NaNs of distinct payloads, without and with the sign bit
    payloads = rng.integers(1, 1 << np.finfo(dtype).nmant, W)
    rows += [_nans(dtype, payloads), np.copysign(_nans(dtype, payloads), -1)]
    while len(rows) < B:
        rows.append(np.where(rng.random(W) < 0.5,
                             rng.choice(SELECT_VALUES[dtype], W),
                             np.cumsum(rng.exponential(size=W)).astype(dtype)))
    return np.array(rows, dtype)


@pytest.mark.parametrize("P", SELECT_LISTS)
def test_select_matches_stable_argsort_on_grid(P):
    assert 2 * SELECT_LISTS[0] < _KEY_SORT_MIN_WIDTH <= 2 * SELECT_LISTS[-1]
    for dtype, big in ((np.float64, 1e300), (np.float32, 1e38)):
        cand = select_rows(np.random.default_rng(P), P, dtype)
        assert np.array_equal(_select(cand, P), stable_argsort(cand, P))
        # and each value next to its neighbours one ulp away, or exactly
        # tied: the key sort, whose low bits hold the column, ties those,
        # so the right order comes only from the rows it sends to argsort
        base = np.repeat(np.array([0.0, 1.0, 3.0, big], dtype),
                         2 * P // 4 + 1)[:2 * P]
        up = np.nextafter(base, dtype(np.inf))
        for cand in (np.stack([base, up[::-1], np.sort(base)[::-1]]),
                     np.tile(up, (3, 1))):
            assert np.array_equal(_select(cand, P), stable_argsort(cand, P))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 32), st.integers(0, 2**32 - 1))
def test_select_matches_stable_argsort(P, seed):
    rng = np.random.default_rng(seed)
    W = 2 * P
    for dtype in (np.float64, np.float32):
        base = rng.choice(SELECT_VALUES[dtype], (8, W))
        ulps = rng.integers(-2, 3, (8, W))  # shift finite values by 0-2 ulp
        near = base.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2):
                near = np.where(ulps > 0, np.nextafter(near, dtype(np.inf)),
                                near)
                near = np.where(ulps < 0, np.nextafter(near, dtype(0.0)),
                                near)
                ulps -= np.sign(ulps)
        finite_metrics = np.cumsum(rng.exponential(size=(8, W)),
                                   axis=1).astype(dtype)
        cand = np.concatenate([base, near, finite_metrics,
                               np.round(finite_metrics)])
        assert cand.dtype == dtype
        assert np.array_equal(_select(cand, P), stable_argsort(cand, P))


@pytest.mark.parametrize("list_size", [8, 16, 32])
@pytest.mark.parametrize("llr_kind", ["integer", "decimal", "huge"])
def test_scl_paths_match_stable_argsort_selection(list_size, llr_kind,
                                                  monkeypatch):
    # integer LLRs tie metrics exactly; LLRs rounded to 0.1 give metrics
    # that differ in their last bits only, as sums in another order; and
    # LLRs of +-the largest finite value of the decoder's width overflow g
    # to +-inf and then NaN
    rng = np.random.default_rng(list_size)
    spec = CodeSpec(64, 32)
    bits = np.zeros(64, dtype=np.uint8)
    bits[rng.permutation(64)[:32]] = 1
    mask = FrozenMask(bits)
    cfg = DecoderConfig("scl", list_size)
    x = 1.0 - 2.0 * encode(spec, mask, rng.integers(0, 2, (64, 32)))
    noisy = x + rng.normal(0, 0.9, x.shape)
    llrs = {"integer": np.round(2 * noisy), "decimal": np.round(2 * noisy, 1),
            "huge": np.where(noisy < 0, -1.0, 1.0) * np.finfo(cfg.dtype).max,
            }[llr_kind]
    with np.errstate(over="ignore", invalid="ignore"):
        got = scl_decode_batch(spec, mask, cfg, llrs)
        monkeypatch.setattr(codec, "_select", stable_argsort)
        want = scl_decode_batch(spec, mask, cfg, llrs)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the SCL node schedule: Rate-0 and REP nodes against the leaf walk


def random_mask(rng, n, kind):
    """An N = 2**n mask with a random frozen set, or with one information
    bit, or with one frozen bit (N = 1 and 2 allow only one of these)."""
    N = 1 << n
    k = {"random": int(rng.integers(1, max(N, 2))), "one_info": 1,
         "one_frozen": max(N - 1, 1)}[kind]
    bits = np.ones(N, dtype=np.uint8)
    bits[rng.permutation(N)[:k]] = 0
    return CodeSpec(N, k), FrozenMask(bits)


def ga_mask(n, k):
    spec = CodeSpec(n, k)
    return spec, build_mask(spec, ga_reliabilities(spec, 3.2))


def test_schedules_tile_the_code_with_aligned_maximal_nodes():
    rng = np.random.default_rng(5)
    masks = [ga_mask(64, 32), ga_mask(256, 128)] + [
        random_mask(rng, n, kind) for n in range(9)
        for kind in ("random", "one_info", "one_frozen") for _ in range(4)]
    for spec, mask in masks:
        bits = mask.bits
        for nodes in (False, True):
            schedule = _compile(bits.tobytes(), nodes)
            end = 0
            for s, l, frozen in schedule:
                assert s == end and s % (1 << l) == 0
                end = s + (1 << l)
                blk = bits[s:end]
                # all frozen (Rate-0) or frozen but the last (REP)
                assert blk[:-1].all() and frozen == bool(blk[-1])
                if not nodes:
                    assert l == 0
                elif l < spec.stages:  # and its parent block is neither
                    first = s & -(2 << l)
                    assert not bits[first:first + (2 << l)][:-1].all()
            assert end == spec.n_bits
            assert sum(not f for _, _, f in schedule) == spec.k_info
    # the node visits of the GA masks at 3.2 dB, leaves -> nodes
    assert len(_compile(ga_mask(64, 32)[1].bits.tobytes(), True)) == 35
    assert len(_compile(ga_mask(256, 128)[1].bits.tobytes(), True)) == 132


def test_only_approximate_min_sum_scl_decodes_nodes(monkeypatch):
    # a spy on the descent records the (position, level) of every node
    spec, mask = ga_mask(64, 32)
    llrs = np.random.default_rng(3).normal(1, 2, (8, 64))
    visits = []
    descend = codec._descend

    def spy(llr_lvl, sums, i, n, f_func, level=0):
        visits.append((i, level))
        return descend(llr_lvl, sums, i, n, f_func, level)

    monkeypatch.setattr(codec, "_descend", spy)
    leaves = [(i, 0) for i in range(64)]
    for cfg in (DecoderConfig("sc"), DecoderConfig("sc", node_mode="exact_f"),
                DecoderConfig("scl", 4, "exact", "min_sum_f"),
                DecoderConfig("scl", 4, "approximate", "exact_f"),
                DecoderConfig("scl", 4, "exact", "exact_f")):
        visits.clear()
        decode_batch(spec, mask, cfg, llrs)
        assert visits == leaves, cfg
    for P in (1, 4):
        visits.clear()
        decode_batch(spec, mask, DecoderConfig("scl", P), llrs)
        assert visits == [(s, l) for s, l, _ in
                          _compile(mask.bits.tobytes(), True)]
        assert len(visits) == 35


def dyadic_llrs(rng, shape):
    """LLRs k * 2**e with |k| <= 64, one e in [-102, 96] per batch: every
    f, g and metric sum of an N <= 256 decode of them is exact in float32,
    so the node and leaf walks see equal fork candidates."""
    return np.ldexp(rng.integers(-64, 65, shape).astype(np.float64),
                    int(rng.integers(-102, 97)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.sampled_from(["random", "one_info", "one_frozen"]),
       st.sampled_from([1, 2, 3, 4, 8, 32]), st.integers(0, 2**32 - 1))
def test_node_walk_matches_leaf_walk(n, kind, P, seed):
    rng = np.random.default_rng(seed)
    spec, mask = random_mask(rng, n, kind)
    cfg = DecoderConfig("scl", P)
    llrs = dyadic_llrs(rng, (6, spec.n_bits))
    channel = _checked_llrs(spec, llrs, cfg.dtype)
    got = _scl_walk(channel, spec.k_info, cfg,
                    _compile(mask.bits.tobytes(), True))
    want = _scl_walk(channel, spec.k_info, cfg,
                     _compile(mask.bits.tobytes(), False))
    assert np.array_equal(got, want)
    assert np.array_equal(scl_decode_batch(spec, mask, cfg, llrs), got)


def assert_within_an_ulp(got, want):
    # equal, or one rounding of a float64 sum apart
    with np.errstate(over="ignore", invalid="ignore"):  # inf: no spacing
        near = np.abs(got - want) <= np.spacing(np.abs(want))
    assert np.all((got == want) | near)


def test_node_metric_identities():
    # max(0, -f(a, b)) + max(0, -(a + b)) = max(0, -a) + max(0, -b) and
    # max(0, -f(a, b)) + max(0, a + b) = max(0, a) + max(0, b): the Rate-0
    # and REP node metrics equal the leaf walk's over a level-1 block
    rng = np.random.default_rng(9)
    edge = EDGE_LLRS[np.float64]
    a, b = (v.ravel() for v in np.meshgrid(edge, edge))
    x = rng.normal(0, 3, (2, 4096)) * np.exp(rng.normal(0, 4, (2, 4096)))
    ties = rng.integers(-3, 4, (2, 4096)).astype(np.float64)  # |a| = |b|
    for a, b, exact in ((a, b, False), (*x, False), (*ties, True),
                        (ties[0], -ties[0], True)):
        u = np.zeros(a.shape, np.uint8)
        with np.errstate(over="ignore"):
            f, g = _f_min_sum(a, b), _g(a, b, u)
        left0 = np.maximum(0, -f) + np.maximum(0, -g)
        left1 = np.maximum(0, -f) + np.maximum(0, g)
        with np.errstate(over="ignore"):
            right0 = np.maximum(0, -a) + np.maximum(0, -b)
            right1 = np.maximum(0, a) + np.maximum(0, b)
        if exact:
            assert np.array_equal(left0, right0)
            assert np.array_equal(left1, right1)
        else:
            assert_within_an_ulp(left0, right0)
            assert_within_an_ulp(left1, right1)


def last_fork_code(P):
    """An N = 16 code with K = log2(P) + 1 whose last info bit is the last
    position: under list size P only the last fork prunes."""
    k = P.bit_length()
    bits = np.zeros(16, dtype=np.uint8)
    bits[k - 1:15] = 1
    return CodeSpec(16, k), FrozenMask(bits)


def assert_last_fork_keeps_ml(P, metric_mode, node_mode):
    """The last fork of last_fork_code(P) keeps the P best of all 2P
    codewords, so both decoders are ML (min-sum on exact sums). The frozen
    bits before it re-rank the P prefixes, so the winner's candidate index
    at that fork, 2 * parent + bit, can be anything up to 2P - 1."""
    spec, mask = last_fork_code(P)
    cfg = DecoderConfig("scl", P, metric_mode, node_mode)
    payloads = np.array(list(itertools.product([0, 1], repeat=spec.k_info)),
                        dtype=np.uint8)
    signs = 1.0 - 2.0 * encode(spec, mask, payloads)
    rng = np.random.default_rng(29)
    llrs = rng.integers(-4096, 4097, (64, 16)) / 1024.0
    scores = llrs @ signs.T
    top2 = np.sort(scores, axis=1)[:, -2:]
    llrs = llrs[top2[:, 1] > top2[:, 0]]  # no tie for the first place
    ml = payloads[np.argmax(llrs @ signs.T, axis=1)]
    assert len(llrs) > 50
    assert np.array_equal(scl_decode_batch(spec, mask, cfg, llrs), ml)


@pytest.mark.parametrize("metric_mode,node_mode", [
    ("exact", "exact_f"), ("approximate", "min_sum_f")])
def test_backtrack_past_255_paths(metric_mode, node_mode):
    # list size 512 keeps candidate indices up to 1023 in uint16; the node
    # walk takes the last fork in a REP node after a Rate-0 node
    mask = last_fork_code(512)[1]
    assert _compile(mask.bits.tobytes(), True)[-2:] == ((10, 1, True),
                                                        (12, 2, False))
    assert_last_fork_keeps_ml(512, metric_mode, node_mode)


@pytest.mark.parametrize("P", [128, 256])
@pytest.mark.parametrize("metric_mode,node_mode", [
    ("exact", "exact_f"), ("approximate", "min_sum_f")])
def test_fork_history_width_edges(P, metric_mode, node_mode):
    # candidate indices reach 2P - 1: 255 still fits uint8 at list size
    # 128, and 511 needs uint16 at list size 256
    assert_last_fork_keeps_ml(P, metric_mode, node_mode)


# ---------------------------------------------------------------------------
# batch composition: a frame decodes the same in any batch


COMPOSITION_CONFIGS = [DecoderConfig("sc"),
                       DecoderConfig("sc", node_mode="exact_f")] + [
    DecoderConfig("scl", P, metric_mode, node_mode)
    for P in (1, 2, 4, 8, 16, 32)
    for metric_mode, node_mode in (("approximate", "min_sum_f"),
                                   ("exact", "min_sum_f"),
                                   ("approximate", "exact_f"),
                                   ("exact", "exact_f"))]


def noisy_llrs(rng, spec, mask, B):
    """B noisy frames of random codewords; about half the rows rounded to
    integers, whose fork candidates tie."""
    payload = rng.integers(0, 2, (B, spec.k_info))
    llrs = 2.5 * (1.0 - 2.0 * encode(spec, mask, payload)
                  + rng.normal(0, 0.8, (B, spec.n_bits)))
    tied = rng.random(B) < 0.5
    llrs[tied] = np.round(llrs[tied])
    return llrs


def assert_pieces_decode_alike(spec, mask, cfg, llrs, bounds):
    # decode_batch on a concatenation equals the concatenation of
    # decode_batch on its pieces, so the Monte Carlo engine may decode any
    # run of frames in one call
    whole = decode_batch(spec, mask, cfg, llrs)
    pieces = [decode_batch(spec, mask, cfg, llrs[lo:hi])
              for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(pieces), whole)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.sampled_from(COMPOSITION_CONFIGS),
       st.lists(st.integers(1, 23), max_size=12), st.integers(0, 23),
       st.integers(0, 2**32 - 1))
def test_decoding_is_independent_of_batch_composition(n, cfg, cuts, one,
                                                      seed):
    rng = np.random.default_rng(seed)
    spec, mask = random_mask(rng, n, "random")
    llrs = noisy_llrs(rng, spec, mask, 24)
    bounds = sorted({0, 24, one, one + 1, *cuts})  # frame `one` alone
    assert_pieces_decode_alike(spec, mask, cfg, llrs, bounds)


@pytest.mark.parametrize("P", [8, 32])
def test_select_fallback_rows_decode_alike_in_any_batch(P, monkeypatch):
    # integer-LLR rows whose fork candidates tie take _select's argsort
    # fallback in the same calls where the other rows take the key sort
    spec, mask = ga_mask(64, 32)
    rng = np.random.default_rng(P)
    llrs = noisy_llrs(rng, spec, mask, 64)
    mixed = []
    select = codec._select

    def spy(cand, P):
        low = np.sort(cand, axis=1)[:, :P + 1]
        tie = np.any(np.isfinite(low[:, 1:]) & (low[:, 1:] == low[:, :-1]),
                     axis=1)
        mixed.append(tie.any() and not tie.all())
        return select(cand, P)

    monkeypatch.setattr(codec, "_select", spy)
    cuts = rng.choice(np.arange(1, 64), 20, replace=False)
    assert_pieces_decode_alike(spec, mask, DecoderConfig("scl", P), llrs,
                               sorted({0, 64, 30, 31, *cuts}))
    assert sum(mixed) > 10
