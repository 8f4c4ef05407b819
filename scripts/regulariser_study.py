#!/usr/bin/env python3
"""Desk-scale study: does Dropout, Mixup or BatchNorm beat the plain MLP?

Every arm trains the desk surrogate ((L, H, G) = (3, 128, 3), 300 epochs,
split 0.8) on seeds 1-3 over the desk dataset stage ((64,32) SCL-4 at
3.2 dB, r = 7, D = 620, 50 errors per mask, seed 5). Each model is scored
by its average IOE on held-out shuffles labelled at 400 errors per mask,
none of them a training mask. Its top candidate comes from
`search_and_validate` (the desk PGD settings, one validated candidate);
every arm shares one PGD seed and one Monte Carlo seed, and each
validation runs a fixed frame budget. The GA mask is validated under the
same stream for reference.

An arm beats plain when its mean held-out IOE is below plain's by more
than the larger of the two arms' max - min over seeds. An arm whose
TrainConfig field the imported polarlab lacks is reported as absent.

    python3 scripts/regulariser_study.py --src path/to/checkout/src

Everything follows from the seeds below, so a rerun against the same
--src prints the same table. WORKERS Monte Carlo workers only set the
run time: about 2.5 minutes at 2 on a 2-vCPU VM.
"""

import argparse
import os
import sys
import time

N, K, EBN0_DB, LIST_SIZE = 64, 32, 3.2, 4
TRAIN_SHUFFLE = dict(range_r=7, count_d=620, seed=5)
TRAIN_MC = dict(seed=5, target_frame_errors=50, max_frames=100_000)
HELD_SHUFFLE = dict(range_r=7, count_d=150, seed=6)
HELD_MC = dict(seed=6, target_frame_errors=400, max_frames=2_000_000)
MLP = (3, 128, 3)
EPOCHS, SPLIT, SEEDS = 300, 0.8, (1, 2, 3)
PGD = dict(iterations_i=5000, step_mu=0.1, restarts=32, seed=9, top_k=1)
VALIDATE_SEED, FRAME_BUDGET = 9, 2**15
WORKERS = 2

# arm name -> TrainConfig keyword arguments
ARMS = {
    "plain": {},
    "dropout 0.1": {"dropout_p": 0.1},
    "dropout 0.2": {"dropout_p": 0.2},
    "mixup 0.2": {"mixup_alpha": 0.2},
    "mixup 0.4": {"mixup_alpha": 0.4},
    "batchnorm": {"batchnorm": True},
}


def _log(message):
    print(message, file=sys.stderr, flush=True)


def _datasets(pl, spec, order, decoder, channel):
    """(training records, held-out records that are not training masks)."""
    Shuffle, Mc = pl.ShuffleConfig, pl.MonteCarloConfig
    train = pl.generate_dataset(
        spec, order, Shuffle(**TRAIN_SHUFFLE), decoder, channel,
        Mc(**TRAIN_MC, workers=WORKERS))
    seen = {rec.mask.bits.tobytes() for rec in train}
    held = pl.generate_dataset(
        spec, order, Shuffle(**HELD_SHUFFLE), decoder, channel,
        Mc(**HELD_MC, workers=WORKERS))
    held = [rec for rec in held if rec.mask.bits.tobytes() not in seen
            and rec.fer_estimate.frame_errors > 0]
    return train, held


def _run_arm(pl, kwargs, train, held, search_args):
    """Per seed (held-out IOE, validation IOE, top candidate's FER), or
    None when this polarlab has no such TrainConfig field."""
    rows = []
    for seed in SEEDS:
        try:
            tc = pl.TrainConfig(epochs=EPOCHS, seed=seed, **kwargs)
        except TypeError:
            return None
        params, std, val = pl.train(train, SPLIT, pl.MlpConfig(*MLP), tc)
        reports = pl.search_and_validate(params, std, *search_args)
        top = reports[0].validated if reports else None
        rows.append((pl.evaluate_ioe(params, std, held).average_ioe,
                     val.average_ioe,
                     float("nan") if top is None else top.fer))
    return rows


def _table(results):
    """Markdown table of every arm, with the beats-plain verdict."""
    plain = [r[0] for r in results["plain"]]
    head = ("| arm | held-out IOE, seeds " + "/".join(map(str, SEEDS))
            + " | mean | max-min | validation IOE mean "
            "| top-candidate FER per seed | beats plain |")
    lines = [head, "|" + "---|" * 7]
    for name, rows in results.items():
        if rows is None:
            lines.append(f"| {name} | absent from this src | | | | | |")
            continue
        ioe = [r[0] for r in rows]
        mean = sum(ioe) / len(ioe)
        spread = max(ioe) - min(ioe)
        if name == "plain":
            verdict = "-"
        else:
            margin = max(spread, max(plain) - min(plain))
            verdict = "yes" if sum(plain) / len(plain) - mean > margin \
                else "no"
        lines.append(
            f"| {name} | {' / '.join(f'{v:.4f}' for v in ioe)} "
            f"| {mean:.4f} | {spread:.4f} "
            f"| {sum(r[1] for r in rows) / len(rows):.4f} "
            f"| {' / '.join(f'{r[2]:.3e}' for r in rows)} | {verdict} |")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"),
        help="directory that holds the polarlab package to study "
             "(default: this checkout's src/)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import polarlab as pl
    _log(f"polarlab from {os.path.dirname(pl.__file__)}")

    start = time.perf_counter()
    spec = pl.CodeSpec(N, K)
    order = pl.ga_reliabilities(spec, EBN0_DB)
    decoder = pl.DecoderConfig("scl", LIST_SIZE)
    ch = pl.ChannelConfig(EBN0_DB, spec.rate)
    train, held = _datasets(pl, spec, order, decoder, ch)
    _log(f"datasets in {time.perf_counter() - start:.0f} s")

    base = pl.build_mask(spec, order)
    validate = pl.MonteCarloConfig(
        VALIDATE_SEED, FRAME_BUDGET, FRAME_BUDGET, WORKERS)
    search_args = (pl.PgdConfig(**PGD), spec, decoder, ch, validate, base)
    results = {}
    for name, kwargs in ARMS.items():
        results[name] = _run_arm(pl, kwargs, train, held, search_args)
        _log(f"{name} done at {time.perf_counter() - start:.0f} s")
    ga = pl.estimate_fer(spec, base, decoder, ch, validate.derive(0))

    print(f"training masks {len(train)}, held-out masks {len(held)}, "
          f"held-out chance IOE "
          f"{pl.constant_predictor_ioe(held).average_ioe:.4f}")
    print(f"GA mask FER {ga.fer:.3e} on the candidates' {FRAME_BUDGET}-frame "
          f"stream")
    print("\n".join(_table(results)))
    print(f"elapsed {time.perf_counter() - start:.0f} s "
          f"at {WORKERS} workers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
