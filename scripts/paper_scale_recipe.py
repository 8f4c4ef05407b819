#!/usr/bin/env python3
"""Full-scale (256,128) pipeline: GA baseline, dataset, surrogate, PGD search.

This is the published-scale counterpart of scripts/desk_scale_pipeline.sh
and runs the same `polarlab` CLI stages: `construct` and `simulate` for the
GA baseline (mask.txt, baseline.csv, baseline.svg), then `dataset`, `train`
and `search` (dataset.txt, model.txt, candidates.txt). Every artifact gets
the CLI's `.manifest`. It simulates on the order of 1e5 shuffled
constructions under SCL-32 with FERs reaching the 1e-4 decade (the dataset
stage prints its progress every 25 masks), trains a (L=5, H=320, G=3)
surrogate, and mines masks with 64 PGD restarts. The README's "Reproducing
published-scale results" section projects its cost from the measured
SCL-32 frame rate: CPU-years end to end. Run it detached and keep the
output directory.

    python3 scripts/paper_scale_recipe.py --workers 16 --out-dir runs/large

With --skip-existing a stage (mask, baseline curve, dataset, model) is
skipped when its output is already in --out-dir, its `.manifest` records
every setting the recipe would pass now, and no earlier stage ran in this
invocation, so a model is never kept over a rebuilt dataset. File paths
and --threads are not compared (outputs are the same at any worker count),
nor is the dataset's --range-r, which the pilot derives from the rest. The
search and validation always re-run, and an interrupted dataset stage
starts over: it writes its file only when every mask is done. A stage that
fails ends the recipe with the CLI's exit code.
"""

import argparse
import os
import sys

from polarlab import cli
from polarlab.channel import MAX_WORKERS, ChannelConfig
from polarlab.codec import CodeSpec, DecoderConfig
from polarlab.construction import ga_reliabilities, select_shuffle_range

N, K = 256, 128
EBN0_DB = 3.2          # operating point with baseline FER in the 1e-4 decade
LIST_SIZE = 32
DATASET_SIZE = 100_000
TARGET_ERRORS = 100
MAX_FRAMES = 20_000_000
MLP = dict(depth=5, hidden=320, gap=3)
EPOCHS = 500
PGD = dict(iters=5000, mu=0.1, restarts=64, topk=8)


def _flags(**values) -> list[str]:
    """CLI flags from keyword arguments: range_r=8 -> ['--range-r', '8']."""
    return [token for key, value in values.items()
            for token in ("--" + key.replace("_", "-"), str(value))]


# flags --skip-existing does not compare: paths name files in --out-dir,
# which the recipe chains itself, and outputs are the same at any --threads
_NOT_COMPARED = ("--out", "--mask", "--dataset", "--threads")


def _reusable(output: str, argv: list[str]) -> bool:
    """Whether output exists and its manifest records argv's command and
    every compared flag's value."""
    if not os.path.exists(output):
        return False
    try:
        with open(argv[argv.index("--out") + 1] + ".manifest",
                  encoding="utf-8") as fh:
            recorded = dict(line.partition(": ")[::2]
                            for line in fh.read().splitlines())
    except OSError:
        return False
    wanted = {"command": argv[0]} | {
        flag[2:].replace("-", "_"): value
        for flag, value in zip(argv[1::2], argv[2::2])
        if flag not in _NOT_COMPARED}
    return all(recorded.get(key) == value for key, value in wanted.items())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int,
                    default=min(os.cpu_count() or 1, MAX_WORKERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="runs/large")
    ap.add_argument("--skip-existing", action="store_true",
                    help="skip a stage whose output is already in --out-dir")
    args = ap.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    mask, baseline, dataset, model, candidates = (
        os.path.join(args.out_dir, name) for name in
        ("mask.txt", "baseline", "dataset.txt", "model.txt",
         "candidates.txt"))

    def mc(target_errors, max_frames):
        return _flags(seed=args.seed, threads=args.workers,
                      target_errors=target_errors, max_frames=max_frames)

    def shuffle_range():
        spec = CodeSpec(N, K)
        range_r = select_shuffle_range(
            spec, ga_reliabilities(spec, EBN0_DB),
            DecoderConfig("scl", LIST_SIZE), ChannelConfig(EBN0_DB, spec.rate),
            pilot_size=8, candidate_rs=[8, 12, 16, 20, 24], seed=args.seed,
            max_frames=MAX_FRAMES, workers=args.workers)
        print(f"selected shuffle half-width r={range_r}")
        return range_r

    # (output that --skip-existing looks for, CLI argv; the dataset stage
    # gets --range-r only when it runs, as choosing it runs the pilot)
    stages = [
        (mask, ["construct", *_flags(n=N, k=K, ebn0=EBN0_DB), "--out", mask]),
        (baseline + ".csv", [
            "simulate", "--mask", mask,
            *_flags(ebn0=EBN0_DB, list_size=LIST_SIZE),
            *mc(TARGET_ERRORS, MAX_FRAMES), "--out", baseline]),
        (dataset, [
            "dataset", *_flags(n=N, k=K, ebn0=EBN0_DB, design_ebn0=EBN0_DB,
                               count_d=DATASET_SIZE, list_size=LIST_SIZE),
            *mc(TARGET_ERRORS, MAX_FRAMES), "--out", dataset]),
        (model, ["train", "--dataset", dataset,
                 *_flags(epochs=EPOCHS, seed=args.seed, **MLP),
                 "--out", model]),
        (None, ["search", "--model", model, "--dataset", dataset,
                *_flags(**PGD), *mc(2 * TARGET_ERRORS, 10 * MAX_FRAMES),
                "--out", candidates]),
    ]
    ran = False
    for output, command in stages:
        if (args.skip_existing and not ran and output
                and _reusable(output, command)):
            print(f"reusing {output}")
            continue
        if command[0] == "dataset":
            command += _flags(range_r=shuffle_range())
        ran = True
        code = cli.main(command)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
