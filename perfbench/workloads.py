"""The benchmark's three workloads, each one closed-loop caller.

A workload is set up once (GA construction and input generation), then its
`op` runs repeatedly. Every Monte Carlo stage runs at workers=1 and again at
workers=2 on the same inputs, so each op yields one frames/s sample per
worker count and checks that both give identical results (acceptance
criterion 6). Inputs derive only from the workload seed and the op index.

The workloads call polarlab only through module attributes
(`channel.estimate_fer`, `io_formats.save_dataset`, ...) so the tracer can
wrap those call sites in a traced run.
"""

import json
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from polarlab import channel, construction, io_formats, search, surrogate
from polarlab.channel import ChannelConfig, FerEstimate, MonteCarloConfig
from polarlab.codec import CodeSpec, DecoderConfig, FrozenMask
from polarlab.construction import DatasetRecord, ShuffleConfig
from polarlab.errors import PolarLabError
from polarlab.search import PgdConfig
from polarlab.surrogate import MlpConfig, TrainConfig

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "baseline.json")
UNREACHABLE_TARGET = 10**9
SHUFFLE_SEED = 5


def derive(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


class LogCounter(logging.Handler):
    """Counts the failures polarlab reports only as log warnings."""

    PREFIXES = {"skipping mask": "masks_skipped",
                "restart %d aborted": "restarts_aborted",
                "validation of candidate": "validations_failed"}

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = dict.fromkeys(self.PREFIXES.values(), 0)

    def emit(self, record):
        for prefix, key in self.PREFIXES.items():
            if str(record.msg).startswith(prefix):
                self.counts[key] += 1


@dataclass
class Tally:
    """Operations attempted and failed, and which output checks failed."""

    attempted: int = 0
    failed: int = 0
    failed_checks: list = field(default_factory=list)

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool) -> None:
        self.count(1, 0 if ok else 1)
        if not ok:
            self.failed_checks.append(name)


@dataclass
class OpRecord:
    """What one op measured: Monte Carlo (frames, seconds) per worker count
    plus workload-specific stage times and counts for the info lines."""

    mc: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _estimate_line(est: FerEstimate) -> str:
    return f"{est.fer!r},{est.frames},{est.frame_errors}"


class Workload:
    name = ""
    Sizes = None

    def __init__(self, seed: int, workdir: str, tally: Tally,
                 log_counter: LogCounter, sizes=None):
        self.seed = seed
        self.workdir = workdir
        self.tally = tally
        self.log = log_counter
        self.sizes = sizes if sizes is not None else self.Sizes()

    def _ga_code(self, n, k, design_db, ebn0_db, list_size):
        self.spec = CodeSpec(n, k)
        self.order = construction.ga_reliabilities(self.spec, design_db)
        self.base_mask = construction.build_mask(self.spec, self.order)
        self.decoder = DecoderConfig("scl", list_size)
        self.channel = ChannelConfig(ebn0_db, self.spec.rate)

    def _estimate_both(self, mask: FrozenMask, seed: int, target: int,
                       max_frames: int, record: OpRecord):
        """estimate_fer at workers=1 and 2; checks they agree exactly."""
        estimates = {}
        for workers in (1, 2):
            mc = MonteCarloConfig(seed, target, max_frames, workers)
            try:
                est, secs = _timed(channel.estimate_fer, self.spec, mask,
                                   self.decoder, self.channel, mc)
            except PolarLabError:
                self.tally.count(1, 1)
                continue
            self.tally.count(1)
            estimates[workers] = est
            record.mc[workers] = (est.frames, secs)
        if len(estimates) == 2:
            self.tally.check(
                "estimate_fer identical at workers 1 and 2",
                _estimate_line(estimates[1]) == _estimate_line(estimates[2]))
        return estimates.get(1)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> OpRecord:
        raise NotImplementedError

    def finish(self) -> dict:
        """End-of-run checks; returns facts for the info line."""
        return {}


def load_reference(key: str) -> dict | None:
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["fer_reference"].get(key)


def fer_consistent(errors: int, frames: int, ref_errors: int,
                   ref_frames: int, z_max: float = 4.0) -> bool:
    """Two-proportion z test of a run's pooled FER against a reference."""
    pooled = (errors + ref_errors) / (frames + ref_frames)
    if pooled in (0.0, 1.0):
        return errors / frames == pooled
    se = math.sqrt(pooled * (1 - pooled) * (1 / frames + 1 / ref_frames))
    return abs(errors / frames - ref_errors / ref_frames) <= z_max * se


# ---------------------------------------------------------------------------

class MonteCarlo(Workload):
    """Paper-recipe decoder: fixed frame budget of one GA mask."""

    name = "mc_n256_scl32"

    @dataclass(frozen=True)
    class Sizes:
        n: int = 256
        k: int = 128
        design_db: float = 3.2
        ebn0_db: float = 2.5
        list_size: int = 32
        frames: int = 1024

    def setup(self):
        s = self.sizes
        self._ga_code(s.n, s.k, s.design_db, s.ebn0_db, s.list_size)
        self.reference_key = (f"n{s.n}_k{s.k}_scl{s.list_size}"
                              f"_design{s.design_db}_ebn0{s.ebn0_db}")
        self.reference = load_reference(self.reference_key)
        self.frames = self.errors = 0

    def op(self, index):
        record = OpRecord()
        est = self._estimate_both(self.base_mask, derive(self.seed, index),
                                  UNREACHABLE_TARGET, self.sizes.frames,
                                  record)
        if est is not None:
            self.frames += est.frames
            self.errors += est.frame_errors
        return record

    def finish(self):
        ref = self.reference
        ok = (ref is not None and self.frames > 0
              and fer_consistent(self.errors, self.frames, ref["errors"],
                                 ref["frames"]))
        self.tally.check(f"FER consistent with reference {self.reference_key}",
                         ok)
        return {"frames": self.frames, "frame_errors": self.errors,
                "reference": ref}


# ---------------------------------------------------------------------------

class Dataset(Workload):
    """Desk pipeline's dataset stage: many short early-stopped estimates.

    Op i shuffles the same masks in every run (shuffle seed derived from the
    desk pipeline's seed 5 and i); the workload seed sets the Monte Carlo
    noise. How many rounds a mask needs depends mostly on the mask, so
    drawing masks from the seed would make op time vary between seeds by
    far more than between commits.
    """

    name = "dataset_n64_scl4"

    @dataclass(frozen=True)
    class Sizes:
        n: int = 64
        k: int = 32
        design_db: float = 3.2
        ebn0_db: float = 3.2
        list_size: int = 4
        range_r: int = 7
        count_d: int = 8
        target_errors: int = 50
        max_frames: int = 100_000

    def setup(self):
        s = self.sizes
        self._ga_code(s.n, s.k, s.design_db, s.ebn0_db, s.list_size)
        self.zero_error = 0
        self.masks = 0

    def op(self, index):
        s = self.sizes
        record = OpRecord()
        shuffle = ShuffleConfig(s.range_r, s.count_d,
                                derive(SHUFFLE_SEED, index))
        mc_seed = derive(self.seed, index)
        header = io_formats.DatasetHeader(s.n, s.k, "scl", s.list_size,
                                          s.ebn0_db, s.design_db, s.range_r,
                                          s.count_d, shuffle.seed)
        written = {}
        for workers in (1, 2):
            mc = MonteCarloConfig(mc_seed, s.target_errors, s.max_frames,
                                  workers)
            skipped_before = self.log.counts["masks_skipped"]
            try:
                records, secs = _timed(construction.generate_dataset,
                                       self.spec, self.order, shuffle,
                                       self.decoder, self.channel, mc)
            except PolarLabError:
                self.tally.count(1, 1)
                continue
            skipped = self.log.counts["masks_skipped"] - skipped_before
            self.tally.count(len(records) + skipped, skipped)
            record.mc[workers] = (
                sum(r.fer_estimate.frames for r in records), secs)
            path = os.path.join(self.workdir, f"dataset-w{workers}.txt")
            io_formats.save_dataset(path, header, records)
            written[workers] = (path, records)
        if len(written) < 2:
            return record
        (path1, records), (path2, _) = written[1], written[2]
        with open(path1, "rb") as f1, open(path2, "rb") as f2:
            self.tally.check("dataset file identical at workers 1 and 2",
                             f1.read() == f2.read())
        _, loaded = io_formats.load_dataset(path2)
        self.tally.check(
            "saved dataset reloads to identical records",
            len(loaded) == len(records) and all(
                np.array_equal(a.mask.bits, b.mask.bits)
                and a.fer_estimate == b.fer_estimate
                for a, b in zip(loaded, records)))
        zero = sum(r.fer_estimate.frame_errors == 0 for r in records)
        self.zero_error += zero
        self.masks += len(records)
        record.info = {"masks": len(records), "zero_error_records": zero}
        return record

    def finish(self):
        return {"masks": self.masks, "zero_error_records": self.zero_error}


# ---------------------------------------------------------------------------

class Surrogate(Workload):
    """Desk pipeline's train and search stages on a synthetic oracle."""

    name = "surrogate_n64"

    @dataclass(frozen=True)
    class Sizes:
        n: int = 64
        k: int = 32
        design_db: float = 3.2
        ebn0_db: float = 3.2
        list_size: int = 4
        records: int = 800
        depth: int = 3
        hidden: int = 128
        gap: int = 3
        epochs: int = 200
        restarts: int = 8
        iterations: int = 1000
        top_k: int = 2
        validate_target: int = 10
        validate_frames: int = 1024
        confirm_frames: int = 2048

    def setup(self):
        s = self.sizes
        self._ga_code(s.n, s.k, s.design_db, s.ebn0_db, s.list_size)
        records = self._synthetic_oracle()
        self.chance_ioe = surrogate.constant_predictor_ioe(records).average_ioe
        self.dataset_path = os.path.join(self.workdir, "oracle.txt")
        header = io_formats.DatasetHeader(s.n, s.k, "scl", s.list_size,
                                          s.ebn0_db, s.design_db, 1,
                                          s.records, self.seed)
        io_formats.save_dataset(self.dataset_path, header, records)
        self.model_path = os.path.join(self.workdir, "model.txt")
        self.candidates_path = os.path.join(self.workdir, "candidates.txt")

    def _synthetic_oracle(self):
        """Linear log-FER oracle over the GA mask's variable positions, as
        in acceptance criterion 7: constant coordinates exercise the
        standardizer, and every shuffled mask keeps the frozen count. The
        score is standardized so log FER spreads over about 1e-6..0.5 for
        every seed instead of piling up at the clip."""
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        weights = rng.normal(0, 1, s.n)
        frozen = self.base_mask.bits.astype(bool)
        # the 8 least and 4 most reliable GA positions stay fixed
        fixed = np.zeros(s.n, dtype=bool)
        fixed[self.order.order[:8]] = fixed[self.order.order[-4:]] = True
        free = np.flatnonzero(~fixed)
        quota = int(frozen[free].sum())
        masks = np.tile(np.where(fixed, frozen, False).astype(np.uint8),
                        (s.records, 1))
        for row in masks:
            row[free[rng.permutation(free.size)[:quota]]] = 1
        score = masks @ weights
        log_fer = np.minimum(
            -0.2, -3.5 + (score - score.mean()) / score.std()
            + rng.normal(0, 0.01, s.records))
        frames = 10**9
        return [DatasetRecord(FrozenMask(bits), FerEstimate.from_counts(
                    max(1, int(round(math.exp(lf) * frames))), frames,
                    s.ebn0_db))
                for bits, lf in zip(masks, log_fer)]

    def op(self, index):
        s = self.sizes
        record = OpRecord()
        start = time.perf_counter()
        _, records = io_formats.load_dataset(self.dataset_path)
        params, std, report = surrogate.train(
            records, 0.8, MlpConfig(s.depth, s.hidden, s.gap),
            TrainConfig(epochs=s.epochs, seed=derive(self.seed, index, 0)))
        io_formats.save_model(self.model_path, params, std)
        train_s = time.perf_counter() - start
        self.tally.check("validation IOE below constant-predictor IOE",
                         report.average_ioe < self.chance_ioe)

        start = time.perf_counter()
        params2, std2 = io_formats.load_model(self.model_path)
        aborted = self.log.counts["restarts_aborted"]
        invalid = self.log.counts["validations_failed"]
        config = PgdConfig(s.iterations, 0.1, s.restarts,
                           derive(self.seed, index, 1), s.top_k)
        reports = search.search_and_validate(
            params2, std2, config, self.spec, self.decoder, self.channel,
            MonteCarloConfig(derive(self.seed, index, 2), s.validate_target,
                             s.validate_frames, workers=2),
            self.base_mask)
        io_formats.save_candidates(self.candidates_path, self.spec, reports)
        search_s = time.perf_counter() - start
        x = std.transform_inputs(np.stack([r.mask.bits for r in records]))
        self.tally.check(
            "saved model reloads to identical predictions",
            np.array_equal(surrogate.forward(params.config, params, x),
                           surrogate.forward(params2.config, params2, x)))
        self.tally.count(s.restarts,
                         self.log.counts["restarts_aborted"] - aborted)
        self.tally.count(min(s.top_k, len(reports)),
                         self.log.counts["validations_failed"] - invalid)
        top = reports[0] if reports else None
        self.tally.check("top candidate has a validated estimate",
                         top is not None and top.validated is not None)
        if top is not None:
            self._estimate_both(top.mask, derive(self.seed, index, 3),
                                UNREACHABLE_TARGET, s.confirm_frames, record)
        record.info = {"train_s": round(train_s, 4),
                       "search_s": round(search_s, 4),
                       "val_ioe": round(report.average_ioe, 4),
                       "chance_ioe": round(self.chance_ioe, 4)}
        return record


WORKLOADS = {w.name: w for w in (MonteCarlo, Dataset, Surrogate)}
