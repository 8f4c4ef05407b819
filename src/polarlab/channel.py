"""BPSK/AWGN channel and the deterministic parallel Monte Carlo FER engine.

Frames are simulated in fixed-size batches. Each batch draws from its own
Philox counter-based stream keyed by (seed, batch index), so every frame's
randomness is a pure function of the global seed and its frame index and
results are bit-identical for any worker count. A decode call covers a
fixed, aligned run of batches, as many as a budget of decoder state allows
(a frame decodes the same in any batch), so small codes make fewer, wider
NumPy calls and threads contend less for the GIL. The estimate stops at
the first call, in call order, whose cumulative errors reach the target:
close to inverse binomial sampling (Haldane, Biometrika 1945), it
overshoots by at most one call and never depends on the worker count.
Workers decode consecutive calls. Stages that estimate many masks run
them on fork-started processes instead (`_estimate_jobs`).
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .codec import CodeSpec, DecoderConfig, FrozenMask, decode_batch, encode
from .errors import InvalidArgument, InvalidState, PolarLabError

__all__ = [
    "ChannelConfig",
    "MonteCarloConfig",
    "FerEstimate",
    "transmit",
    "estimate_fer",
]

BATCH_FRAMES = 512
MAX_CALL_BATCHES = 8
# path-positions (frames x list size x N) a call of several batches may
# decode: 1024 frames at (64,32) SCL-4, one batch once list size x N >= 512.
# The call is also the stopping step, so changing the budget moves every
# early-stopped estimate
_DECODE_BUDGET = 1 << 18


@dataclass(frozen=True)
class ChannelConfig:
    """AWGN channel at a given Eb/N0 for a rate-R code."""

    ebn0_db: float
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise InvalidArgument(f"rate must be in (0, 1], got {self.rate}")
        try:
            sigma2 = self.noise_variance
        except (OverflowError, ZeroDivisionError):
            sigma2 = math.nan
        if not 0.0 < sigma2 < math.inf:  # false for a NaN or infinite Eb/N0
            raise InvalidArgument(f"Eb/N0 {self.ebn0_db} dB gives no finite, "
                                  f"positive noise variance")

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
        if not 0 <= self.seed < 2**64:
            raise InvalidArgument("seed must be in [0, 2**64)")

    def derive(self, *keys: int) -> "MonteCarloConfig":
        """This config under the child seed that (seed, *keys) spawns, so
        each job of a stage draws its own streams."""
        seq = np.random.SeedSequence([self.seed, *keys])
        return replace(self, seed=int(seq.generate_state(1)[0]))


@dataclass(frozen=True)
class FerEstimate:
    fer: float
    frames: int
    frame_errors: int
    ebn0_db: float
    ci_halfwidth: float

    def __post_init__(self):
        if not 0 <= self.frame_errors <= self.frames or self.frames < 1:
            raise InvalidArgument("FER estimate counts out of range")
        p = self.frame_errors / self.frames
        if (self.fer, self.ci_halfwidth) != (p, _halfwidth(p, self.frames)):
            raise InvalidArgument("fer or ci_halfwidth disagrees with counts")

    @staticmethod
    def from_counts(frame_errors: int, frames: int,
                    ebn0_db: float) -> "FerEstimate":
        if frames < 1:
            raise InvalidState("no frames simulated")
        p = frame_errors / frames
        return FerEstimate(p, frames, frame_errors, ebn0_db,
                           _halfwidth(p, frames))


def _halfwidth(p: float, frames: int) -> float:
    """The 95% normal-approximation confidence half-width of a FER p."""
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / frames)


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


def _simulate_group(spec, mask, decoder, channel, mc, group):
    """Simulate the batches of `group`, a range of batch indices, each from
    its own stream, and decode them in one call; returns (frames, errors)."""
    first = group.start * BATCH_FRAMES
    frames = min(group.stop * BATCH_FRAMES, mc.max_frames) - first
    payload = np.empty((frames, spec.k_info), np.uint8)
    llrs = np.empty((frames, spec.n_bits))
    for b in group:
        lo = b * BATCH_FRAMES - first
        rows = slice(lo, min(lo + BATCH_FRAMES, frames))
        rng = _batch_rng(mc.seed, b)
        payload[rows] = rng.random((rows.stop - lo, spec.k_info)) < 0.5
        llrs[rows] = transmit(encode(spec, mask, payload[rows]), channel, rng)
    decoded = decode_batch(spec, mask, decoder, llrs)
    return frames, int(np.any(decoded != payload, axis=1).sum())


def estimate_fer(
    spec: CodeSpec,
    mask: FrozenMask,
    decoder: DecoderConfig,
    channel: ChannelConfig,
    mc: MonteCarloConfig,
) -> FerEstimate:
    """Monte Carlo FER with early stopping at mc.target_frame_errors.

    Call c decodes batches [c*m, (c+1)*m), cut at max_frames, where m is
    as many batches as the decode budget holds, at most MAX_CALL_BATCHES;
    m depends on the code and the decoder, never on the worker count. The
    estimate is errors / frames over the calls up to the first whose
    cumulative errors reach the target (or all of max_frames), with the
    normal-approximation interval. That is close to inverse binomial
    sampling: it overshoots the target by at most one call. Workers
    decode `workers` consecutive calls at a time; the calls they decode
    past the stopping call (at most workers - 1) are discarded.
    """
    mask.validate_for(spec)
    llr = 2.0 / channel.noise_variance  # of a noiseless symbol
    limit = float(np.finfo(decoder.dtype).max)
    if llr > limit:
        raise InvalidArgument(
            f"Eb/N0 {channel.ebn0_db} dB gives noiseless LLRs of {llr:.4g}, "
            f"more than a {np.dtype(decoder.dtype).name} decoder holds "
            f"({limit:.8g})")
    n_batches = -(-mc.max_frames // BATCH_FRAMES)
    m = min(MAX_CALL_BATCHES, max(1, _DECODE_BUDGET // (
        BATCH_FRAMES * decoder.list_size * spec.n_bits)))
    span = m * mc.workers

    def run(start):
        return _simulate_group(spec, mask, decoder, channel, mc,
                               range(start, min(start + m, n_batches)))

    frames = errors = 0
    with ThreadPoolExecutor(mc.workers) as pool:
        for start in range(0, n_batches, span):
            calls = range(start, min(start + span, n_batches), m)
            for size, err in pool.map(run, calls):
                frames += size
                errors += err
                if errors >= mc.target_frame_errors:
                    return FerEstimate.from_counts(errors, frames,
                                                   channel.ebn0_db)
    return FerEstimate.from_counts(errors, frames, channel.ebn0_db)


def _attempt(estimate, spec, mask, decoder, channel, mc):
    """estimate(...)'s result, or the PolarLabError it raised."""
    try:
        return estimate(spec, mask, decoder, channel, mc)
    except PolarLabError as exc:
        return exc


_forked = None  # (estimate, spec, decoder, channel) in a pool process


def _adopt(*state):
    global _forked
    _forked = state


def _run_job(mask, mc):
    estimate, spec, decoder, channel = _forked
    return _attempt(estimate, spec, mask, decoder, channel, mc)


def _estimate_jobs(estimate, spec, decoder, channel, jobs, workers):
    """Yield, in job order, each (mask, mc) job's
    estimate(spec, mask, decoder, channel, mc), or the PolarLabError it
    raised.

    With p = min(workers, len(jobs)) > 1, the jobs run one per task on p
    fork-started processes, each estimate on workers // p threads.
    Otherwise each runs here, lazily and as given. A job's seed alone
    fixes its estimate, so the split changes no result. Fork passes
    `estimate` to the children as it is (a wrapped or patched function
    too) and starts a pool in milliseconds; the caller must run no other
    threads. The children log nothing, so the caller reports each
    yielded error. Any other exception propagates, and the pool is shut
    down before the generator ends.
    """
    p = min(workers, len(jobs))
    if p <= 1:
        for mask, mc in jobs:
            yield _attempt(estimate, spec, mask, decoder, channel, mc)
        return
    # imported here: at module level they would add ~17 ms to every import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    threads = workers // p
    pool = ProcessPoolExecutor(p, multiprocessing.get_context("fork"),
                               initializer=_adopt,
                               initargs=(estimate, spec, decoder, channel))
    try:
        futures = [pool.submit(_run_job, mask, replace(mc, workers=threads))
                   for mask, mc in jobs]
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)
