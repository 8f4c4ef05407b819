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

from polarlab.channel import ChannelConfig, MonteCarloConfig, estimate_fer
from polarlab.codec import CodeSpec, DecoderConfig, FrozenMask, scl_decode_batch
from polarlab.construction import build_mask, ga_reliabilities

PAYLOAD_SHA256 = {
    (64, 2, "approximate", "min_sum_f"): "987460afeb598a81f3d17433c96c4fa4dd70cb27fcc05f4590b6aa28a2802a66",
    (64, 2, "approximate", "exact_f"): "538a82a9be3c4edfb07532c709778def58dc770851a555c3c8dcfab46fbb4d96",
    (64, 2, "exact", "min_sum_f"): "0fe3996111c7adba507f89779827672451c196cda1d605efd9877bf0ecaadd2a",
    (64, 2, "exact", "exact_f"): "c99ef4ebf370c7f072ecc2e818f4fac6ac5568bc67862a3ea6f9fc975b726811",
    (64, 8, "approximate", "min_sum_f"): "fef2c385116df0145e36db3a5c69986fc96a1d480ca56f7c41ee4a0655a542db",
    (64, 8, "approximate", "exact_f"): "37a48aad9c3f0561ba487780da9880f795663538718a6da498c44390e21129d9",
    (64, 8, "exact", "min_sum_f"): "fd87e8e2f3a8d4f024bf902063b319195d1ae4a22d2952b39087d0e955584fd9",
    (64, 8, "exact", "exact_f"): "8d3cb53e7327e8317dd90075f7695e7437f421df2e4a85d8c2f3d70e9d5fe30f",
    (64, 32, "approximate", "min_sum_f"): "f131c47a7d22f39fe88fdf717a8f67b5164794aa099a52724c773b0c5eae9a8e",
    (64, 32, "approximate", "exact_f"): "0761f9a6912ed1264ea43d6022bc8d5e4e164f3fb3e5e7a0265a126998311ccc",
    (64, 32, "exact", "min_sum_f"): "8913cdcb4a4b83e5fcacbd01c2a986144a6178666ca3b4a1e58e7c854907b932",
    (64, 32, "exact", "exact_f"): "fc2fc6f6fa04a49d3e86140ad3de1dc944915d54a2b4b3ed83c55870b1b3be83",
    (256, 2, "approximate", "min_sum_f"): "dad9bd5f08e07c93504d09f1819f4caf875a7402ae3abe24e6449c2859aceb51",
    (256, 2, "approximate", "exact_f"): "0be365a5985f66f960c49b2b289518b9a7d5fe3ff6013ffed53db2d465506e27",
    (256, 2, "exact", "min_sum_f"): "a46d29bc66ae5f3c5ef882a2f6ee43a5d7328cd5a600ff26685855e8e8e2379e",
    (256, 2, "exact", "exact_f"): "da3b787ef30378b8ded2cc493c5d2b668aac1c37c4833136d82604ad6123a961",
    (256, 8, "approximate", "min_sum_f"): "5de1d1e374032eca7aacc1fea6f13620d0c7bb6379118aa60956e72ca70a11fc",
    (256, 8, "approximate", "exact_f"): "16352d6d76bb1ae76bba70745257020c25c30d83cca84ee1e4d390e57c31f43b",
    (256, 8, "exact", "min_sum_f"): "b9fc2ea498c3ced00150d5d2376b6e6603132d2897d059e1a6606d71443d028a",
    (256, 8, "exact", "exact_f"): "82998de024525b652a0d086518ffd09886f539f97397efdfaf240327acd2bcde",
    (256, 32, "approximate", "min_sum_f"): "237a46dbcd355959c4bcc4d8f759ce1ad02611a83cf56606524f291f696ad71b",
    (256, 32, "approximate", "exact_f"): "675b199125e7bc118327315813d5b39ce5cd5262f3612bc762b66747d9d7ddcb",
    (256, 32, "exact", "min_sum_f"): "8283a76b64f0edfa20bb3eff66bb0665df46a0d6b8338120be4be26c1f3cf029",
    (256, 32, "exact", "exact_f"): "33d7cd81b46fe98fa07e131b6d73250ebe5dae1bf7ab71e0d114d0b101cee173",
}


@pytest.mark.parametrize("n,p,metric_mode,node_mode", sorted(PAYLOAD_SHA256))
def test_scl_payload_digests(n, p, metric_mode, node_mode):
    # a random (not GA) mask puts information bits all over the tree
    rng = np.random.default_rng(n)
    bits = np.zeros(n, dtype=np.uint8)
    bits[rng.permutation(n)[:n // 2]] = 1
    llrs = np.random.default_rng(1000 + n).normal(0.5, 1.5, (32, n))
    cfg = DecoderConfig("scl", p, metric_mode, node_mode)
    out = scl_decode_batch(CodeSpec(n, n // 2), FrozenMask(bits), cfg, llrs)
    assert out.shape == (32, n // 2) and out.dtype == np.uint8
    digest = hashlib.sha256(out.tobytes()).hexdigest()
    assert digest == PAYLOAD_SHA256[(n, p, metric_mode, node_mode)]


@pytest.mark.parametrize("n,k,list_size,ebn0_db,mc,expected", [
    # early-stopped: three rounds, overshooting the 50-error target
    (64, 32, 4, 3.5, MonteCarloConfig(seed=7, target_frame_errors=50),
     (0.005940755208333333, 12288, 73)),
    # paper-recipe decoder on a fixed frame budget
    (256, 128, 32, 1.5,
     MonteCarloConfig(seed=7, target_frame_errors=10**6, max_frames=1024),
     (0.0791015625, 1024, 81)),
])
def test_estimate_fer_pins(n, k, list_size, ebn0_db, mc, expected):
    spec = CodeSpec(n, k)
    mask = build_mask(spec, ga_reliabilities(spec, 3.2))
    est = estimate_fer(spec, mask, DecoderConfig("scl", list_size),
                       ChannelConfig(ebn0_db, spec.rate), mc)
    assert (est.fer, est.frames, est.frame_errors) == expected
