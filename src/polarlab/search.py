"""Straight-through projected gradient descent over relaxed frozen masks.

The search runs on the surrogate's kept (non-constant) coordinates in the
signed {-1,+1} domain. Each iteration quantizes the relaxed vector with a
rank projection that keeps the frozen-bit count exact, evaluates the
surrogate at the quantized point, and applies that point's input gradient
to the relaxed vector. Constant coordinates are re-attached from the base
mask before any candidate leaves this module.

All restarts run as the rows of one relaxed matrix, so each iteration is
one rank projection and one surrogate forward/backward over every row. A
row whose surrogate output or gradient turns non-finite aborts only its
own restart; the matrix keeps its shape until the run ends.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelConfig, FerEstimate, MonteCarloConfig,
                      estimate_fer)
from .codec import CodeSpec, DecoderConfig, FrozenMask
from .errors import InvalidArgument, NumericError, PolarLabError
from .surrogate import MlpParams, Standardizer, output_and_input_gradient

__all__ = ["PgdConfig", "CandidateReport", "quantize", "pgd_run",
           "search_and_validate"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PgdConfig:
    iterations_i: int = 5000
    step_mu: float = 0.1
    restarts: int = 1
    seed: int = 0
    top_k: int = 8

    def __post_init__(self):
        if self.iterations_i < 1:
            raise InvalidArgument("iterations_i must be >= 1")
        if self.step_mu < 0:
            raise InvalidArgument("step_mu must be >= 0")
        if self.restarts < 1:
            raise InvalidArgument("restarts must be >= 1")


@dataclass
class CandidateReport:
    mask: FrozenMask
    predicted_fer: float
    validated: FerEstimate | None
    restart_index: int
    best_iteration: int


def quantize(relaxed: np.ndarray, frozen_quota: int) -> np.ndarray:
    """Rank projection along the last axis: in each row the frozen_quota
    largest values become +1 (frozen), the rest -1; ties keep the lower
    index. Equals the median rule when the quota is half the length."""
    relaxed = np.asarray(relaxed, dtype=np.float64)
    if not 0 <= frozen_quota <= relaxed.shape[-1]:
        raise InvalidArgument(
            f"frozen_quota must be in [0, {relaxed.shape[-1]}], "
            f"got {frozen_quota}")
    out = np.full(relaxed.shape, -1.0)
    top = np.argsort(-relaxed, axis=-1, kind="stable")[..., :frozen_quota]
    np.put_along_axis(out, top, 1.0, axis=-1)
    return out


def _attach_constant(base_mask: FrozenMask, kept: np.ndarray,
                     signed: np.ndarray) -> FrozenMask:
    bits = base_mask.bits.copy()
    bits[kept] = (signed > 0).astype(np.uint8)
    return FrozenMask(bits)


def _pgd_restarts(params: MlpParams, standardizer: Standardizer,
                  config: PgdConfig, base_mask: FrozenMask,
                  restart_indices) -> list[CandidateReport | NumericError]:
    """Run the given restarts as the rows of one relaxed matrix.

    Returns, per restart, its CandidateReport or the NumericError that
    aborted it. An aborted row keeps its place in the matrix, so a live
    row's arithmetic never depends on which rows died; evaluation mode
    keeps the surrogate's rows independent.
    """
    kept = standardizer.kept_indices
    quota = int(base_mask.bits[kept].sum())
    rows = len(restart_indices)
    relaxed = np.full((rows, kept.size), -1.0)
    for row, j in zip(relaxed, restart_indices):
        rng = np.random.default_rng([config.seed, j])
        row[rng.permutation(kept.size)[:quota]] = 1.0

    best_pred = np.full(rows, np.inf)
    best_q = np.empty_like(relaxed)
    best_iter = np.full(rows, -1)
    died_at = np.full(rows, -1)
    # pass iterations_i only scores the point the last step reached
    for it in range(config.iterations_i + 1):
        q = quantize(relaxed, quota)
        y, g_std = output_and_input_gradient(
            params.config, params, standardizer.transform_signed(q))
        finite = np.isfinite(y) & np.all(np.isfinite(g_std), axis=1)
        died_at[(died_at < 0) & ~finite] = it
        pred = np.exp(standardizer.inverse_log_fer(y))
        better = (died_at < 0) & (pred < best_pred)
        best_pred[better] = pred[better]
        best_q[better] = q[better]
        best_iter[better] = it
        if np.all(died_at >= 0):
            break
        # chain the standardized-space gradient back to the signed domain
        relaxed = relaxed - config.step_mu * (g_std / standardizer.in_std)

    results = []
    for r, j in enumerate(restart_indices):
        if died_at[r] >= 0:
            results.append(NumericError(
                f"non-finite surrogate output/gradient at iteration "
                f"{died_at[r]} of restart {j}"))
        elif best_iter[r] < 0:
            results.append(NumericError(
                f"no finite predicted FER in restart {j}"))
        else:
            results.append(CandidateReport(
                _attach_constant(base_mask, kept, best_q[r]),
                float(best_pred[r]), None, j, int(best_iter[r])))
    return results


def pgd_run(
    params: MlpParams,
    standardizer: Standardizer,
    config: PgdConfig,
    base_mask: FrozenMask,
    restart_index: int = 0,
) -> CandidateReport:
    """One restart of Algorithm-style PGD; returns the best quantized mask
    (tracked over every iteration, not just the last)."""
    [result] = _pgd_restarts(params, standardizer, config, base_mask,
                             [restart_index])
    if isinstance(result, NumericError):
        raise result
    return result


def search_and_validate(
    params: MlpParams,
    standardizer: Standardizer,
    config: PgdConfig,
    spec: CodeSpec,
    decoder: DecoderConfig,
    channel: ChannelConfig,
    mc: MonteCarloConfig,
    base_mask: FrozenMask,
) -> list[CandidateReport]:
    """Run all restarts, dedupe, validate the top_k best-predicted masks by
    Monte Carlo, and rank: validated candidates by measured FER first."""
    results = _pgd_restarts(params, standardizer, config, base_mask,
                            range(config.restarts))
    reports = []
    for j, result in enumerate(results):
        if isinstance(result, NumericError):
            log.warning("restart %d aborted: %s", j, result)
        else:
            reports.append(result)

    unique: dict[bytes, CandidateReport] = {}
    for rep in reports:
        unique.setdefault(rep.mask.bits.tobytes(), rep)
    ranked = sorted(unique.values(),
                    key=lambda r: (r.predicted_fer, r.restart_index))

    for rank, rep in enumerate(ranked[:config.top_k]):
        seed = int(np.random.SeedSequence([mc.seed, rank]).generate_state(1)[0])
        per = MonteCarloConfig(seed, mc.target_frame_errors, mc.max_frames,
                               mc.workers)
        try:
            rep.validated = estimate_fer(spec, rep.mask, decoder, channel, per)
        except PolarLabError as exc:
            log.warning("validation of candidate %d failed: %s", rank, exc)

    def key(rep):
        if rep.validated is not None:
            return (0, rep.validated.fer, rep.predicted_fer)
        return (1, rep.predicted_fer, 0.0)

    return sorted(ranked, key=key)
