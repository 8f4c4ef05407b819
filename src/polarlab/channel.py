"""BPSK/AWGN channel and the deterministic parallel Monte Carlo FER engine.

Frames are simulated in fixed-size batches. Each batch draws from its own
Philox counter-based stream keyed by (seed, batch index), so every frame's
randomness is a pure function of the global seed and its frame index and
results are bit-identical for any worker count. Workers parallelize the
batches of a round; the set of batches contributing to the estimate is
decided from cumulative counts in batch order only.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codec import CodeSpec, DecoderConfig, FrozenMask, decode_batch, encode
from .errors import InvalidArgument, InvalidState

__all__ = [
    "ChannelConfig",
    "MonteCarloConfig",
    "FerEstimate",
    "transmit",
    "estimate_fer",
]

BATCH_FRAMES = 512
ROUND_BATCHES = 8


@dataclass(frozen=True)
class ChannelConfig:
    """AWGN channel at a given Eb/N0 for a rate-R code."""

    ebn0_db: float
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise InvalidArgument(f"rate must be in (0, 1], got {self.rate}")

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebn0_db / 10.0))


@dataclass(frozen=True)
class MonteCarloConfig:
    seed: int = 0
    target_frame_errors: int = 100
    max_frames: int = 1_000_000
    workers: int = 1

    def __post_init__(self):
        if self.target_frame_errors < 1:
            raise InvalidArgument("target_frame_errors must be >= 1")
        if self.max_frames < 1:
            raise InvalidArgument("max_frames must be >= 1")
        if self.workers < 1:
            raise InvalidArgument("workers must be >= 1")


@dataclass(frozen=True)
class FerEstimate:
    fer: float
    frames: int
    frame_errors: int
    ebn0_db: float
    ci_halfwidth: float

    def __post_init__(self):
        if not 0.0 <= self.fer <= 1.0 or self.frame_errors > self.frames:
            raise InvalidArgument("inconsistent FER estimate fields")

    @staticmethod
    def from_counts(frame_errors: int, frames: int,
                    ebn0_db: float) -> "FerEstimate":
        if frames < 1:
            raise InvalidState("no frames simulated")
        p = frame_errors / frames
        half = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / frames)
        return FerEstimate(p, frames, frame_errors, ebn0_db, half)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Counter-keyed generator: stream b occupies counter block [0,0,b,*]."""
    bg = np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF,
                          counter=[0, 0, batch_index, 0])
    return np.random.Generator(bg)


def _box_muller(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via Box-Muller on the generator's uniform stream."""
    count = int(np.prod(shape))
    half = (count + 1) // 2
    u = rng.random((2, half))
    r = np.sqrt(-2.0 * np.log1p(-u[0]))
    theta = 2.0 * np.pi * u[1]
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return z[:count].reshape(shape)


def transmit(codeword: np.ndarray, channel: ChannelConfig,
             frame_rng: np.random.Generator) -> np.ndarray:
    """BPSK-modulate, add AWGN, and return channel LLRs (2y / sigma^2)."""
    bits = np.asarray(codeword, dtype=np.float64)
    sigma2 = channel.noise_variance
    y = (1.0 - 2.0 * bits) + math.sqrt(sigma2) * _box_muller(
        frame_rng, bits.shape)
    return 2.0 * y / sigma2


def _simulate_batch(spec, mask, decoder, channel, seed, batch_index, size):
    """Simulate `size` frames of batch `batch_index`; returns error count."""
    rng = _batch_rng(seed, batch_index)
    payload = (rng.random((size, spec.k_info)) < 0.5).astype(np.uint8)
    codewords = encode(spec, mask, payload)
    llrs = transmit(codewords, channel, rng)
    decoded = decode_batch(spec, mask, decoder, llrs)
    return int(np.any(decoded != payload, axis=1).sum())


def estimate_fer(
    spec: CodeSpec,
    mask: FrozenMask,
    decoder: DecoderConfig,
    channel: ChannelConfig,
    mc: MonteCarloConfig,
) -> FerEstimate:
    """Monte Carlo FER with early stopping at mc.target_frame_errors.

    Batches are scheduled in fixed rounds of ROUND_BATCHES regardless of
    worker count; the estimate always covers whole rounds, so it can
    overshoot the error target by at most one round but never depends on
    parallelism.
    """
    mask.validate_for(spec)
    n_batches = -(-mc.max_frames // BATCH_FRAMES)

    def batch_size(b):
        return min(BATCH_FRAMES, mc.max_frames - b * BATCH_FRAMES)

    def run(b):
        return _simulate_batch(spec, mask, decoder, channel, mc.seed, b,
                               batch_size(b))

    frames = errors = 0
    with ThreadPoolExecutor(mc.workers) as pool:
        for start in range(0, n_batches, ROUND_BATCHES):
            batches = range(start, min(start + ROUND_BATCHES, n_batches))
            for b, err in zip(batches, pool.map(run, batches)):
                frames += batch_size(b)
                errors += err
            if errors >= mc.target_frame_errors:
                break
    return FerEstimate.from_counts(errors, frames, channel.ebn0_db)
