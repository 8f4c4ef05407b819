"""BPSK/AWGN channel and the deterministic parallel Monte Carlo FER engine.

Frames are simulated in fixed-size batches. Each batch draws from its own
Philox counter-based stream keyed by (seed, batch index), so every frame's
randomness is a pure function of the global seed and its frame index and
results are bit-identical for any worker count. A decode call covers a
fixed, aligned run of batches, as many as a budget of decoder state allows
(a frame decodes the same in any batch), so small codes make fewer, wider
NumPy calls. An estimate stops at the first call, in call order, whose
cumulative errors reach the target: close to inverse binomial sampling
(Haldane, Biometrika 1945), it overshoots by at most one call and never
depends on the worker count. `estimate_jobs` runs the calls of one or many
estimates on one kept pool of fork-started processes, one call per task.
"""

import atexit
import math
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
    "estimate_jobs",
    "MAX_WORKERS",
]

BATCH_FRAMES = 512
MAX_CALL_BATCHES = 8
# path-positions (frames x list size x N) a call of several batches may
# decode: 1024 frames at (64,32) SCL-4, one batch once list size x N >= 512.
# The call is also the stopping step, so changing the budget moves every
# early-stopped estimate
_DECODE_BUDGET = 1 << 18
# a fork pool starts all its processes at once: the most a run may ask for
MAX_WORKERS = 256


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
        if not 1 <= self.workers <= MAX_WORKERS:
            raise InvalidArgument(f"workers must be in [1, {MAX_WORKERS}]")
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


def _check(spec, mask, decoder, channel):
    """Raise what rules a job out before its first call."""
    mask.validate_for(spec)
    llr = 2.0 / channel.noise_variance  # of a noiseless symbol
    limit = float(np.finfo(decoder.dtype).max)
    if llr > limit:
        raise InvalidArgument(
            f"Eb/N0 {channel.ebn0_db} dB gives noiseless LLRs of {llr:.4g}, "
            f"more than a {np.dtype(decoder.dtype).name} decoder holds "
            f"({limit:.8g})")


def _caught(fn, *args):
    """fn(*args), or the PolarLabError it raised."""
    try:
        return fn(*args)
    except PolarLabError as exc:
        return exc


def _call(task):
    # a pool task: _simulate_group is looked up in the process that runs it
    return _caught(_simulate_group, *task)


_kept = None  # (workers, the pool of that many processes)


def _pool(workers):
    """The kept pool of `workers` fork-started processes; a new count shuts
    the old pool down first. Fork copies this process as it is, so the
    caller must run no other threads when the pool starts."""
    global _kept
    if _kept is None or _kept[0] != workers:
        _close_pool()
        # imported here: at module level they would add ~17 ms to every import
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        _kept = workers, ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"))
    return _kept[1]


def _close_pool():
    global _kept
    if _kept is not None:
        _kept[1].shutdown(cancel_futures=True)
        _kept = None


# shut the pool down before the interpreter tears down what its threads use
atexit.register(_close_pool)


def estimate_jobs(spec, decoder, channel, jobs, workers):
    """Yield, in job order, each (mask, mc) job's FerEstimate, or the
    PolarLabError the job raised.

    A job's call c decodes batches [c*m, (c+1)*m), cut at mc.max_frames,
    where m is as many batches as the decode budget holds (at most
    MAX_CALL_BATCHES) for this code and decoder. The estimate is errors /
    frames over the calls up to the first whose cumulative errors reach
    mc.target_frame_errors (or all of max_frames), with the
    normal-approximation interval: it overshoots the target by at most one
    call and depends on the job's seed alone.

    Up to 2 * workers calls are in flight, one call per task, so a
    process that finishes a call finds the next queued. Each goes to the
    first unfinished job with a call left and fewer than ceil(workers / L)
    calls in flight, L the unfinished jobs: a lone job decodes at most
    workers - 1 calls past its stop, and L >= workers jobs decode none.
    Outcomes fold in issue order, so each job's in call order. At one
    worker the calls run here, lazily, and above one on the kept pool
    (`_pool`). The parent checks each job before its first call and
    reports each yielded error, as the children log nothing. Any other
    exception propagates and shuts the pool down.
    """
    m = min(MAX_CALL_BATCHES, max(1, _DECODE_BUDGET // (
        BATCH_FRAMES * decoder.list_size * spec.n_bits)))
    ends = [_caught(_check, spec, mask, decoder, channel) for mask, _ in jobs]
    starts, busy, frames, errors = ([0] * len(jobs) for _ in range(4))
    live = ends.count(None)
    pool = _pool(workers) if workers > 1 and live else None
    flight = []  # (job, its call's future, or its task at one worker)
    try:
        for j in range(len(jobs)):
            while ends[j] is None:
                share, i = -(-workers // live), j
                while len(flight) < (2 * workers if pool else 1) \
                        and i < len(jobs):
                    mask, mc = jobs[i]
                    b = starts[i]
                    if (ends[i] is not None or busy[i] >= share
                            or b * BATCH_FRAMES >= mc.max_frames):
                        i += 1
                        continue
                    starts[i] += m
                    busy[i] += 1
                    task = (spec, mask, decoder, channel, mc, range(
                        b, min(b + m, -(-mc.max_frames // BATCH_FRAMES))))
                    flight.append((i, pool.submit(_call, task) if pool
                                   else task))
                i, call = flight.pop(0)
                busy[i] -= 1
                outcome = call.result() if pool else _call(call)
                if ends[i] is not None:  # stopped at an earlier call
                    continue
                if isinstance(outcome, PolarLabError):
                    ends[i] = outcome
                else:
                    frames[i] += outcome[0]
                    errors[i] += outcome[1]
                    mc = jobs[i][1]
                    if (errors[i] >= mc.target_frame_errors
                            or frames[i] == mc.max_frames):
                        ends[i] = FerEstimate.from_counts(
                            errors[i], frames[i], channel.ebn0_db)
                live -= ends[i] is not None
            yield ends[j]
    except BaseException:
        _close_pool()  # calls may still run on it, or it may be broken
        raise


def estimate_fer(
    spec: CodeSpec,
    mask: FrozenMask,
    decoder: DecoderConfig,
    channel: ChannelConfig,
    mc: MonteCarloConfig,
) -> FerEstimate:
    """Monte Carlo FER with early stopping at mc.target_frame_errors: the
    one-job case of `estimate_jobs` on mc.workers workers, re-raising the
    job's PolarLabError."""
    est, = estimate_jobs(spec, decoder, channel, [(mask, mc)], mc.workers)
    if isinstance(est, PolarLabError):
        raise est
    return est
