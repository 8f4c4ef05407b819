"""Golden pins: exact decoder outputs and FER estimates for fixed seeds.

Any change to the decoding kernels must keep these byte for byte; a change
that cannot (for example a different floating-point evaluation order) has
to say so and re-pin them. The LLRs are low-SNR noise, so paths fork and
get pruned at nearly every information bit and every level of the path
state is copied or re-pointed many times.
"""

import hashlib

import numpy as np
import pytest

from polarlab import cli
from polarlab.channel import ChannelConfig, MonteCarloConfig, estimate_fer
from polarlab.codec import (CodeSpec, DecoderConfig, FrozenMask,
                            sc_decode_batch, scl_decode_batch)
from polarlab.construction import build_mask, ga_reliabilities

# (N, list size, exact): the min-sum decoder and the exact reference
PAYLOAD_SHA256 = {
    (64, 2, False): "987460afeb598a81f3d17433c96c4fa4dd70cb27fcc05f4590b6aa28a2802a66",
    (64, 2, True): "c99ef4ebf370c7f072ecc2e818f4fac6ac5568bc67862a3ea6f9fc975b726811",
    (64, 8, False): "fef2c385116df0145e36db3a5c69986fc96a1d480ca56f7c41ee4a0655a542db",
    (64, 8, True): "8d3cb53e7327e8317dd90075f7695e7437f421df2e4a85d8c2f3d70e9d5fe30f",
    (64, 32, False): "f131c47a7d22f39fe88fdf717a8f67b5164794aa099a52724c773b0c5eae9a8e",
    (64, 32, True): "fc2fc6f6fa04a49d3e86140ad3de1dc944915d54a2b4b3ed83c55870b1b3be83",
    (256, 2, False): "dad9bd5f08e07c93504d09f1819f4caf875a7402ae3abe24e6449c2859aceb51",
    (256, 2, True): "da3b787ef30378b8ded2cc493c5d2b668aac1c37c4833136d82604ad6123a961",
    (256, 8, False): "5de1d1e374032eca7aacc1fea6f13620d0c7bb6379118aa60956e72ca70a11fc",
    (256, 8, True): "82998de024525b652a0d086518ffd09886f539f97397efdfaf240327acd2bcde",
    (256, 32, False): "237a46dbcd355959c4bcc4d8f759ce1ad02611a83cf56606524f291f696ad71b",
    (256, 32, True): "33d7cd81b46fe98fa07e131b6d73250ebe5dae1bf7ab71e0d114d0b101cee173",
}


# (N, exact)
SC_PAYLOAD_SHA256 = {
    (64, False): "a6e68c5114dba16f10654ca228c1c479dfbf7a4d6d1dec8cdb11373bb65f06f8",
    (64, True): "2223b53f8c1bd8cbda5d4cce3cb1c7c5f079eda325e6bc9f61708ca49a76d23b",
    (256, False): "c50c903230a364c760a7583a2a32494ea6266889bcc8e3a86719e0b836b019b8",
    (256, True): "d46aa376c222731b45891ec7577768aaa5c1d6717c130e056965d225579c3f1c",
}

# (B, N) error indicator of SC's genie_zero mode, N=256, min-sum f
SC_GENIE_SHA256 = "e59dc81c893d01ca5d6a2cc8abdcbfe4fbf0e5796ced8c87e59683db93284184"

# N=1: every decoder returns the hard decision llr < 0 (a tie at 0 is u=0)
N1_SHA256 = "1dd446ba49213c82b5ba6c6577baff2124fd41841a5855db54f14b2846f8fc58"


def _random_code(n):
    # a random (not GA) mask puts information bits all over the tree
    rng = np.random.default_rng(n)
    bits = np.zeros(n, dtype=np.uint8)
    bits[rng.permutation(n)[:n // 2]] = 1
    llrs = np.random.default_rng(1000 + n).normal(0.5, 1.5, (32, n))
    return CodeSpec(n, n // 2), FrozenMask(bits), llrs


def _digest(out):
    return hashlib.sha256(out.tobytes()).hexdigest()


def _pin_id(key):
    # the metric and f of each decoder: SCL's both, SC's f alone
    *dims, exact = key
    if len(dims) == 2:
        modes = ["exact", "exact_f"] if exact else ["approximate", "min_sum_f"]
    else:
        modes = ["exact_f" if exact else "min_sum_f"]
    return "-".join(map(str, dims + modes))


@pytest.mark.parametrize("key", sorted(PAYLOAD_SHA256), ids=_pin_id)
def test_scl_payload_digests(key):
    n, p, exact = key
    spec, mask, llrs = _random_code(n)
    out = scl_decode_batch(spec, mask, DecoderConfig("scl", p, exact), llrs)
    assert out.shape == (32, n // 2) and out.dtype == np.uint8
    assert _digest(out) == PAYLOAD_SHA256[key]


@pytest.mark.parametrize("key", sorted(SC_PAYLOAD_SHA256), ids=_pin_id)
def test_sc_payload_digests(key):
    n, exact = key
    spec, mask, llrs = _random_code(n)
    out = sc_decode_batch(spec, mask, llrs, exact=exact)
    assert out.shape == (32, n // 2) and out.dtype == np.uint8
    assert _digest(out) == SC_PAYLOAD_SHA256[key]


def test_sc_genie_zero_digest():
    spec, mask, llrs = _random_code(256)
    out = sc_decode_batch(spec, mask, llrs, genie_zero=True)
    assert out.shape == (32, 256) and out.dtype == np.uint8
    assert _digest(out) == SC_GENIE_SHA256


@pytest.mark.parametrize("decode", [
    lambda m, x: sc_decode_batch(CodeSpec(1, 1), m, x),
    lambda m, x: sc_decode_batch(CodeSpec(1, 1), m, x, genie_zero=True),
    lambda m, x: scl_decode_batch(CodeSpec(1, 1), m, DecoderConfig("scl", 1), x),
    lambda m, x: scl_decode_batch(
        CodeSpec(1, 1), m, DecoderConfig("scl", 4, exact=True), x),
], ids=["sc", "sc-genie", "scl1", "scl4-exact"])
def test_n1_digests(decode):
    llrs = np.random.default_rng(1001).normal(0.5, 1.5, (32, 1))
    llrs[::5] = 0.0
    out = decode(FrozenMask([0]), llrs)
    assert out.shape == (32, 1) and out.dtype == np.uint8
    assert _digest(out) == N1_SHA256


def _config_id(config):
    return "sc" if config.algorithm == "sc" else str(config.list_size)


@pytest.mark.parametrize("n,k,config,ebn0_db,mc,expected", [
    # early-stopped after nine 1024-frame calls, overshooting the
    # 50-error target by the last call's errors
    (64, 32, DecoderConfig("scl", 4), 3.5, MonteCarloConfig(seed=7, target_frame_errors=50),
     (0.005967881944444444, 9216, 55)),
    # paper-recipe decoder on a fixed frame budget
    (256, 128, DecoderConfig("scl", 32), 1.5,
     MonteCarloConfig(seed=7, target_frame_errors=10**6, max_frames=1024),
     (0.0791015625, 1024, 81)),
    # SC, early-stopped after one 1024-frame call
    (256, 128, DecoderConfig("sc"), 2.5,
     MonteCarloConfig(seed=7, target_frame_errors=50),
     (0.05078125, 1024, 52)),
], ids=lambda v: _config_id(v) if isinstance(v, DecoderConfig) else None)
def test_estimate_fer_pins(n, k, config, ebn0_db, mc, expected):
    spec = CodeSpec(n, k)
    mask = build_mask(spec, ga_reliabilities(spec, 3.2))
    est = estimate_fer(spec, mask, config, ChannelConfig(ebn0_db, spec.rate), mc)
    assert (est.fer, est.frames, est.frame_errors) == expected


DATASET_STAGE_SHA256 = {
    "mask.txt": "cee562d37ddd21b48db7f481e6b225a2075d848be18f7e8be67a56b0527c05dd",
    "dataset.txt": "bfad2adea2a423947f4ebd8fa91d85f783869c3191de6ad6e506333d6a80e17b",
}


def test_dataset_stage_digests(tmp_path, monkeypatch):
    """The construct and dataset stages end to end at (32,16) SCL-4: the
    per-mask seeds, the dedup (24 shuffles give 19 masks) and the writers,
    on 1 thread and on 2 and 4 processes. Model and candidate files are
    not pinned: their matmuls round differently on different BLAS
    builds."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", "--n", "32", "--k", "16", "--ebn0", "3.0",
                     "--out", "mask.txt"]) == 0
    for threads in ("1", "2", "4"):
        assert cli.main(["dataset", "--n", "32", "--k", "16", "--ebn0", "3.0",
                         "--design-ebn0", "3.0", "--range-r", "4",
                         "--count-d", "24", "--list-size", "4",
                         "--target-errors", "20", "--max-frames", "20000",
                         "--seed", "3", "--threads", threads,
                         "--out", "dataset.txt"]) == 0
        for name, digest in DATASET_STAGE_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()) \
                .hexdigest() == digest, (name, threads)
