"""Gaussian Approximation reliability ordering and shuffled-dataset generation.

GA propagates mean LLRs through the polar recursion: starting from
m = 2/sigma^2, a check node maps m -> phi^{-1}(1 - (1 - phi(m))^2) and a
variable node maps m -> 2m. phi uses the usual two-piece approximation
(coefficients in PHI_COEFFS); its inverse is found by bisection in the
log domain so very reliable channels stay finite.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelConfig, MonteCarloConfig, FerEstimate,
                      _estimate_jobs, estimate_fer)
from .codec import CodeSpec, DecoderConfig, FrozenMask
from .errors import InvalidArgument, InvalidState, NumericError, PolarLabError

__all__ = [
    "ReliabilityOrder",
    "ShuffleConfig",
    "DatasetRecord",
    "ga_reliabilities",
    "build_mask",
    "generate_dataset",
    "select_shuffle_range",
    "PHI_COEFFS",
]

log = logging.getLogger(__name__)

# phi(x) = exp(a*x^b + c) for 0 < x <= 10, sqrt(pi/x) e^{-x/4} (1 - 10/(7x))
# above; recorded in dataset headers for auditability
PHI_COEFFS = {"a": -0.4527, "b": 0.86, "c": 0.0218, "split": 10.0}

# largest pilot max/min FER ratio select_shuffle_range accepts for a window
PILOT_RATIO_TARGET = 10.0


@dataclass
class ReliabilityOrder:
    """Positions sorted ascending by GA mean LLR (least reliable first)."""

    order: np.ndarray
    reliabilities: np.ndarray

    def __post_init__(self):
        self.order = np.asarray(self.order, dtype=np.int64)
        self.reliabilities = np.asarray(self.reliabilities, dtype=np.float64)
        n = self.order.size
        if not np.array_equal(np.sort(self.order), np.arange(n)):
            raise InvalidArgument("order must be a permutation")
        if np.any(np.diff(self.reliabilities[self.order]) < 0):
            raise InvalidArgument("order must sort reliabilities ascending")


@dataclass(frozen=True)
class ShuffleConfig:
    """Window half-width r, number of variants D, and the shuffle seed."""

    range_r: int
    count_d: int
    seed: int = 0

    def __post_init__(self):
        if self.range_r < 1:
            raise InvalidArgument("range_r must be >= 1")
        if self.count_d < 1:
            raise InvalidArgument("count_d must be >= 1")
        if self.seed < 0:
            raise InvalidArgument("seed must be >= 0")


@dataclass
class DatasetRecord:
    mask: FrozenMask
    fer_estimate: FerEstimate


def _log_phi(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    a, b, c, split = (PHI_COEFFS[k] for k in ("a", "b", "c", "split"))
    small = a * np.power(x, b, where=x > 0, out=np.zeros_like(x)) + c
    with np.errstate(divide="ignore", invalid="ignore"):
        big = 0.5 * np.log(np.pi / x) - x / 4.0 + np.log1p(-10.0 / (7.0 * x))
    return np.where(x <= split, small, big)


def _inv_log_phi(target: np.ndarray) -> np.ndarray:
    """Solve log phi(x) = target by bisection (phi is decreasing)."""
    target = np.asarray(target, dtype=np.float64)
    lo = np.full_like(target, 1e-12)
    hi = np.maximum(100.0, -4.0 * target + 20.0)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        too_small = _log_phi(mid) > target
        lo = np.where(too_small, mid, lo)
        hi = np.where(too_small, hi, mid)
    return 0.5 * (lo + hi)


def _check_update(m: np.ndarray) -> np.ndarray:
    """GA check-node update phi^{-1}(1 - (1 - phi(m))^2) in log domain."""
    lp = _log_phi(m)
    # log(2 phi - phi^2) = log phi + log(2 - phi)
    target = lp + np.log(2.0 - np.exp(lp))
    out = np.where(m > 0, _inv_log_phi(target), 0.0)
    if not np.all(np.isfinite(out)):
        raise NumericError("GA check update produced non-finite means")
    return out


def ga_reliabilities(spec: CodeSpec, design_ebn0_db: float) -> ReliabilityOrder:
    """GA mean LLRs for every position, sorted least reliable first."""
    sigma2 = ChannelConfig(design_ebn0_db, spec.rate).noise_variance
    means = np.array([2.0 / sigma2])
    # interleave so the outermost (channel-level) split is applied first:
    # position bits read MSB->LSB give the check/variable sequence
    for _ in range(spec.stages):
        new = np.empty(2 * means.size)
        new[0::2] = _check_update(means)
        new[1::2] = 2.0 * means
        means = new
    order = np.argsort(means, kind="stable")
    return ReliabilityOrder(order, means)


def build_mask(spec: CodeSpec, order: ReliabilityOrder) -> FrozenMask:
    """Freeze the N-K least reliable positions."""
    bits = np.zeros(spec.n_bits, dtype=np.uint8)
    bits[order.order[:spec.n_bits - spec.k_info]] = 1
    return FrozenMask(bits)


def _window_bounds(spec: CodeSpec, order: ReliabilityOrder, r: int):
    boundary = spec.n_bits - spec.k_info
    lo, hi = boundary - r, boundary + r
    if lo < 0 or hi > spec.n_bits:
        raise InvalidArgument(
            f"shuffle window [{lo}, {hi}) exceeds [0, {spec.n_bits})")
    return lo, hi


def _shuffled_mask(spec, order, lo, hi, rng) -> FrozenMask:
    """Permute the order entries with ranks in [lo, hi), rebuild the mask."""
    shuffled = order.order.copy()
    window = shuffled[lo:hi]
    shuffled[lo:hi] = window[rng.permutation(hi - lo)]
    bits = np.zeros(spec.n_bits, dtype=np.uint8)
    bits[shuffled[:spec.n_bits - spec.k_info]] = 1
    return FrozenMask(bits)


def generate_dataset(
    spec: CodeSpec,
    order: ReliabilityOrder,
    shuffle: ShuffleConfig,
    decoder: DecoderConfig,
    channel: ChannelConfig,
    mc: MonteCarloConfig,
    progress=None,
) -> list[DatasetRecord]:
    """D shuffled variants around the frozen/info boundary, deduplicated
    before simulation, each paired with its Monte Carlo FER.

    Mask i is estimated under mc.derive(i). With mc.workers > 1 the masks
    run on min(workers, masks) processes (see `channel._estimate_jobs`),
    and the records are the same at any worker count. A mask whose
    estimate fails is logged and skipped; progress(i + 1, masks) follows
    every mask, in mask order.
    """
    lo, hi = _window_bounds(spec, order, shuffle.range_r)
    unique: dict[bytes, FrozenMask] = {}
    for d in range(shuffle.count_d):
        rng = np.random.default_rng([shuffle.seed, d])
        mask = _shuffled_mask(spec, order, lo, hi, rng)
        unique.setdefault(mask.bits.tobytes(), mask)
    masks = list(unique.values())

    jobs = [(mask, mc.derive(i)) for i, mask in enumerate(masks)]
    records = []
    for i, est in enumerate(_estimate_jobs(estimate_fer, spec, decoder,
                                           channel, jobs, mc.workers)):
        if isinstance(est, PolarLabError):
            log.warning("skipping mask %d: simulation failed (%s)", i, est)
        else:
            records.append(DatasetRecord(masks[i], est))
        if progress is not None:
            progress(i + 1, len(masks))
    return records


def select_shuffle_range(
    spec: CodeSpec,
    order: ReliabilityOrder,
    decoder: DecoderConfig,
    channel: ChannelConfig,
    pilot_size: int,
    candidate_rs: list[int],
    seed: int = 0,
    max_frames: int = 200_000,
    workers: int = 1,
) -> int:
    """Largest candidate r whose pilot max/min FER ratio stays <=
    PILOT_RATIO_TARGET.

    Pilots run at reduced precision (30 frame errors). With workers > 1
    they all run on min(workers, pilots) processes (see
    `channel._estimate_jobs`), and the choice is the same at any worker
    count. Falls back to the smallest candidate when every ratio
    overshoots.
    """
    if pilot_size < 1:
        raise InvalidArgument("pilot_size must be >= 1")
    if not candidate_rs or sorted(candidate_rs) != list(candidate_rs):
        raise InvalidArgument("candidate_rs must be non-empty and ascending")
    if candidate_rs[0] < 1:
        raise InvalidArgument("every candidate r must be >= 1")
    pilot_mc = MonteCarloConfig(seed, target_frame_errors=30,
                                max_frames=max_frames, workers=workers)
    keys, jobs = [], []
    for r in candidate_rs:
        lo, hi = _window_bounds(spec, order, r)
        for p in range(pilot_size):
            rng = np.random.default_rng([seed, r, p])
            keys.append((r, p))
            jobs.append((_shuffled_mask(spec, order, lo, hi, rng),
                         pilot_mc.derive(r, p)))
    fers = {r: [] for r in candidate_rs}
    # the results come first, so zip runs them out and the pool ends
    for est, (r, p) in zip(_estimate_jobs(estimate_fer, spec, decoder,
                                          channel, jobs, workers), keys):
        if isinstance(est, PolarLabError):
            log.warning("pilot r=%d shuffle %d failed (%s)", r, p, est)
        else:
            fers[r].append(est.fer)
    best = None
    any_pilot = False
    for r, pilots in fers.items():
        if not pilots:
            continue
        any_pilot = True
        if min(pilots) > 0 and max(pilots) / min(pilots) <= PILOT_RATIO_TARGET:
            best = r
    if not any_pilot:
        raise InvalidState("every pilot simulation failed")
    if best is None:
        best = candidate_rs[0]
        log.warning("no candidate met ratio <= %g; falling back to r=%d",
                    PILOT_RATIO_TARGET, best)
    return best
