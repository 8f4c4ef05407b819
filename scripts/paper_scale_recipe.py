#!/usr/bin/env python3
"""Full-scale (256,128) pipeline: dataset, surrogate, PGD search.

This is the published-scale counterpart of the desk-scale acceptance run.
It simulates on the order of 1e5 shuffled constructions under SCL-32 with
FERs reaching the 1e-4 decade, trains a (L=5, H=320, G=3) surrogate, and
mines masks with 64 PGD restarts. The README's "Reproducing
published-scale results" section projects its cost from the measured
SCL-32 frame rate: CPU-years end to end. Run it detached and keep the
output directory.

    python3 scripts/paper_scale_recipe.py --workers 16 --out-dir runs/large

With --skip-existing a dataset or model file already in --out-dir is
reused instead of rebuilt. The search and validation always re-run, and
an interrupted dataset stage starts over: it writes its file only when
every mask is done.
"""

import argparse
import os
import sys

from polarlab import io_formats
from polarlab.channel import ChannelConfig, MonteCarloConfig, estimate_fer
from polarlab.codec import CodeSpec, DecoderConfig
from polarlab.construction import (ShuffleConfig, build_mask,
                                   ga_reliabilities, generate_dataset,
                                   select_shuffle_range)
from polarlab.search import PgdConfig, search_and_validate
from polarlab.surrogate import (MlpConfig, TrainConfig,
                                constant_predictor_ioe, train)

N, K = 256, 128
EBN0_DB = 3.2          # operating point with baseline FER in the 1e-4 decade
LIST_SIZE = 32
DATASET_SIZE = 100_000
TARGET_ERRORS = 100
MAX_FRAMES = 20_000_000
MLP = MlpConfig(depth_l=5, hidden_h=320, shortcut_g=3)
EPOCHS = 500
PGD = dict(iterations_i=5000, step_mu=0.1, restarts=64, top_k=8)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="runs/large")
    ap.add_argument("--skip-existing", action="store_true",
                    help="reuse dataset/model files already in --out-dir")
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    dataset_path = os.path.join(args.out_dir, "dataset.txt")
    model_path = os.path.join(args.out_dir, "model.txt")
    cand_path = os.path.join(args.out_dir, "candidates.txt")

    spec = CodeSpec(N, K)
    order = ga_reliabilities(spec, EBN0_DB)
    decoder = DecoderConfig("scl", LIST_SIZE)
    ch = ChannelConfig(EBN0_DB, spec.rate)

    if args.skip_existing and os.path.exists(dataset_path):
        header, records = io_formats.load_dataset(dataset_path)
        range_r = header.range_r
        print(f"reusing {len(records)} records from {dataset_path}")
    else:
        baseline = estimate_fer(
            spec, build_mask(spec, order), decoder, ch,
            MonteCarloConfig(args.seed, TARGET_ERRORS, MAX_FRAMES,
                             args.workers))
        print(f"baseline GA FER at {EBN0_DB} dB: {baseline.fer:.3e}")
        range_r = select_shuffle_range(
            spec, order, decoder, ch, pilot_size=8,
            candidate_rs=[8, 12, 16, 20, 24], seed=args.seed,
            max_frames=MAX_FRAMES)
        print(f"selected shuffle half-width r={range_r}")
        records = generate_dataset(
            spec, order, ShuffleConfig(range_r, DATASET_SIZE, args.seed),
            decoder, ch,
            MonteCarloConfig(args.seed, TARGET_ERRORS, MAX_FRAMES,
                             args.workers),
            progress=lambda d, t: print(f"  {d}/{t} masks", flush=True)
            if d % 500 == 0 else None)
        header = io_formats.DatasetHeader(
            N, K, decoder.algorithm, LIST_SIZE, EBN0_DB, EBN0_DB, range_r,
            DATASET_SIZE, args.seed)
        io_formats.save_dataset(dataset_path, header, records)
        print(f"wrote {len(records)} records -> {dataset_path}")

    if args.skip_existing and os.path.exists(model_path):
        params, standardizer = io_formats.load_model(model_path)
        print(f"reusing model from {model_path}")
    else:
        params, standardizer, report = train(
            records, 0.8, MLP, TrainConfig(epochs=EPOCHS, seed=args.seed))
        chance = constant_predictor_ioe(records)
        io_formats.save_model(model_path, params, standardizer,
                              {"epochs": EPOCHS, "seed": args.seed})
        print(f"validation average IOE {report.average_ioe:.4f} "
              f"(chance {chance.average_ioe:.4f}) -> {model_path}")

    reports = search_and_validate(
        params, standardizer, PgdConfig(seed=args.seed, **PGD), spec,
        decoder, ch,
        MonteCarloConfig(args.seed, 2 * TARGET_ERRORS, 10 * MAX_FRAMES,
                         args.workers),
        build_mask(spec, order))
    io_formats.save_candidates(cand_path, spec, reports)
    best = reports[0]
    if best.validated is not None:
        print(f"best candidate FER {best.validated.fer:.3e} "
              f"(predicted {best.predicted_fer:.3e}) -> {cand_path}")
    best_dataset = min(r.fer_estimate.fer for r in records)
    print(f"best dataset FER for comparison: {best_dataset:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
