#!/usr/bin/env python3
"""Desk-scale study: how many frames does the dataset stage decode per
error target?

Each row runs the desk dataset stage ((64,32) SCL-4, shuffles of the
3.2 dB GA order with r = 7 and D = 16, shuffle seeds 5 and 6, Monte Carlo
seed 3, 1 worker) at one (label SNR, target errors) pair, and prints the
total frames and errors over both shuffle seeds' masks and the wall time.
Frames per label are the cost of the stopping rule: an estimate that
stops later decodes more frames for the same target.

    python3 scripts/stopping_study.py --src path/to/checkout/src

Everything follows from the seeds below, so a rerun against the same
--src prints the same frames and errors; only the times vary. The three
rows take about 6 s on a 2-vCPU VM.
"""

import argparse
import os
import sys
import time

N, K, DESIGN_EBN0_DB, LIST_SIZE = 64, 32, 3.2, 4
RANGE_R, COUNT_D, SHUFFLE_SEEDS = 7, 16, (5, 6)
MC_SEED, MAX_FRAMES, WORKERS = 3, 1_000_000, 1
# (label Eb/N0 in dB, target frame errors per mask)
ROWS = ((3.2, 50), (3.2, 100), (2.4, 100))


def _row(pl, spec, order, decoder, ebn0_db, target):
    """(masks, total frames, total errors, seconds) of one row."""
    channel = pl.ChannelConfig(ebn0_db, spec.rate)
    mc = pl.MonteCarloConfig(MC_SEED, target, MAX_FRAMES, WORKERS)
    start = time.perf_counter()
    records = [rec for seed in SHUFFLE_SEEDS
               for rec in pl.generate_dataset(
                   spec, order, pl.ShuffleConfig(RANGE_R, COUNT_D, seed),
                   decoder, channel, mc)]
    seconds = time.perf_counter() - start
    return (len(records), sum(r.fer_estimate.frames for r in records),
            sum(r.fer_estimate.frame_errors for r in records), seconds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"),
        help="directory that holds the polarlab package to study "
             "(default: this checkout's src/)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import polarlab as pl
    print(f"polarlab from {os.path.dirname(pl.__file__)}", file=sys.stderr)

    spec = pl.CodeSpec(N, K)
    order = pl.ga_reliabilities(spec, DESIGN_EBN0_DB)
    decoder = pl.DecoderConfig("scl", LIST_SIZE)
    print("| label SNR | target | masks | frames | errors | wall s |")
    print("|---|---|---|---|---|---|")
    for ebn0_db, target in ROWS:
        masks, frames, errors, seconds = _row(pl, spec, order, decoder,
                                              ebn0_db, target)
        print(f"| {ebn0_db} dB | {target} | {masks} | {frames:,} "
              f"| {errors} | {seconds:.2f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
