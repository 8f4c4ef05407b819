"""Command-line front end: construct / simulate / dataset / train / eval /
search / plot.

Each subcommand is a thin orchestration layer over the library modules.
Configuration precedence is flags > config file > environment > defaults
(environment overrides exist only for seed and threads). Every run writes a
`<out>.manifest` echoing the fully resolved configuration so outputs can be
regenerated byte-identically.

Exit codes: 0 success, 2 usage error, 3 data/schema error, 4 numeric or
simulation failure.
"""

import argparse
import dataclasses
import logging
import math
import os
import sys

from . import channel, construction, io_formats, search, surrogate
from .channel import ChannelConfig, MonteCarloConfig
from .codec import CodeSpec, DecoderConfig
from .errors import (InvalidArgument, InvalidState, NumericError,
                     PolarLabError, SchemaError)

log = logging.getLogger("polarlab")

ENV_SEED = "POLARLAB_SEED"
ENV_THREADS = "POLARLAB_THREADS"


# ---------------------------------------------------------------------------
# configuration resolution

class _Opt:
    def __init__(self, flag, type_, default, help_):
        self.flag = flag
        self.dest = flag.lstrip("-").replace("-", "_")
        self.type = type_
        self.default = default
        self.help = help_


def _add_options(parser, opts):
    for o in opts:
        parser.add_argument(o.flag, dest=o.dest, type=o.type, default=None,
                            help=o.help)


def _load_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` file; '#' starts a comment."""
    values, seen = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SchemaError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise SchemaError(f"{path}:{lineno}: expected key=value")
        key, value = text.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in seen:
            raise SchemaError(f"{path}:{lineno}: key {key!r} repeats line "
                              f"{seen[key]}")
        values[key], seen[key] = value.strip(), lineno
    return values


def _convert(o, token: str, source: str):
    try:
        return o.type(token)
    except ValueError as exc:
        raise InvalidArgument(f"{source}: {exc}") from exc


def _resolve(args, opts) -> dict:
    """Merge flag > config file > environment > default per option."""
    file_vals = _load_config_file(args.config) if args.config else {}
    env_map = {"seed": ENV_SEED, "threads": ENV_THREADS}
    resolved = {}
    for o in opts:
        value = getattr(args, o.dest, None)
        if value is None and o.dest in file_vals:
            value = _convert(o, file_vals[o.dest],
                             f"config file value for {o.dest!r}")
        if value is None and o.dest in env_map and env_map[o.dest] in os.environ:
            value = _convert(o, os.environ[env_map[o.dest]],
                             f"environment variable {env_map[o.dest]}")
        if value is None:
            value = o.default
        resolved[o.dest] = value
    unknown = set(file_vals) - {o.dest for o in opts}
    if unknown:
        raise InvalidArgument(
            f"config file sets unknown keys: {sorted(unknown)}")
    return resolved


def _write_manifest(out_path: str, command: str, resolved: dict) -> None:
    lines = [f"command: {command}"]
    for key in sorted(resolved):
        lines.append(f"{key}: {resolved[key]}")
    io_formats.write_atomic(out_path + ".manifest", "\n".join(lines) + "\n")


def _parse_ebn0_list(token: str) -> list[float]:
    """'a:b:step' sweep (inclusive) or comma-separated values."""
    sweep = ":" in token
    try:
        values = [float(p) for p in token.split(":" if sweep else ",")
                  if sweep or p.strip()]
    except ValueError:
        raise InvalidArgument(f"--ebn0: not a number in {token!r}") from None
    if not all(map(math.isfinite, values)):
        raise InvalidArgument(f"--ebn0: values must be finite, got {token!r}")
    if not sweep:
        return values
    if len(values) != 3:
        raise InvalidArgument("--ebn0: sweep must be start:stop:step")
    start, stop, step = values
    if not (step > 0 and stop >= start and (stop - start) / step < 1e6):
        raise InvalidArgument("--ebn0: sweep needs step > 0, stop >= start "
                              "and fewer than a million points")
    count = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(count)
            if start + i * step <= stop + 1e-9]


def _decoder_from(resolved) -> DecoderConfig:
    algorithm = "sc" if resolved["list_size"] == 1 else "scl"
    return DecoderConfig(algorithm, resolved["list_size"])


def _mc_from(resolved) -> MonteCarloConfig:
    return MonteCarloConfig(resolved["seed"], resolved["target_errors"],
                            resolved["max_frames"], resolved["threads"])


_LIST_SIZE_OPT = _Opt("--list-size", int, 4, "SCL list size (1 = plain SC)")
_MC_OPTS = [
    _Opt("--seed", int, 0, "global RNG seed"),
    _Opt("--threads", int, 1,
         f"Monte Carlo worker processes (at most {channel.MAX_WORKERS}), "
         "one decode call per task; at 1 every call decodes in this "
         "process"),
    _Opt("--target-errors", int, 100, "frame errors before early stop"),
    _Opt("--max-frames", int, 1_000_000, "frame budget per point"),
]


# ---------------------------------------------------------------------------
# subcommands

def _require_code_dims(r):
    if r["n"] is None or r["k"] is None:
        raise InvalidArgument("--n and --k are required")
    return CodeSpec(r["n"], r["k"])


def cmd_construct(r):
    spec = _require_code_dims(r)
    order = construction.ga_reliabilities(spec, r["ebn0"])
    mask = construction.build_mask(spec, order)
    io_formats.save_mask(r["out"], spec, mask,
                         {"design_ebn0_db": r["ebn0"], "method": "ga"})
    print(f"wrote GA mask ({r['n']},{r['k']}) at {r['ebn0']} dB -> {r['out']}")


def cmd_simulate(r):
    spec, mask = io_formats.load_mask(r["mask"])
    decoder = _decoder_from(r)
    mc = _mc_from(r)
    points = []
    for ebn0 in _parse_ebn0_list(r["ebn0"]):
        est = channel.estimate_fer(spec, mask, decoder,
                                   ChannelConfig(ebn0, spec.rate), mc)
        print(f"ebn0={ebn0:6.2f} dB  fer={est.fer:.6e}  "
              f"frames={est.frames}  errors={est.frame_errors}")
        points.append((ebn0, est))
    label = f"({spec.n_bits},{spec.k_info}) {decoder.algorithm.upper()}" \
            + (f"-{decoder.list_size}" if decoder.algorithm == "scl" else "")
    csv_path, svg_path = io_formats.emit_fer_curve(points, r["out"], label)
    print(f"wrote {csv_path} and {svg_path}")


def cmd_dataset(r):
    spec = _require_code_dims(r)
    order = construction.ga_reliabilities(spec, r["design_ebn0"])
    decoder = _decoder_from(r)
    cfg = ChannelConfig(r["ebn0"], spec.rate)
    shuffle = construction.ShuffleConfig(r["range_r"], r["count_d"], r["seed"])

    def progress(done, total):
        if done % 25 == 0 or done == total:
            print(f"  simulated {done}/{total} masks")

    records = construction.generate_dataset(spec, order, shuffle, decoder,
                                            cfg, _mc_from(r),
                                            progress=progress)
    if not records:
        raise NumericError("every mask failed to simulate; no dataset written")
    header = io_formats.DatasetHeader(
        r["n"], r["k"], decoder.algorithm, decoder.list_size, r["ebn0"],
        r["design_ebn0"], r["range_r"], r["count_d"], r["seed"])
    io_formats.save_dataset(r["out"], header, records)
    fers = [rec.fer_estimate.fer for rec in records]
    print(f"wrote {len(records)} records -> {r['out']}  "
          f"fer range [{min(fers):.3e}, {max(fers):.3e}]")


def cmd_train(r):
    _, records = io_formats.load_dataset(r["dataset"])
    mlp = surrogate.MlpConfig(r["depth"], r["hidden"], r["gap"])
    tc = surrogate.TrainConfig(
        epochs=r["epochs"], batch_size=r["batch_size"], learning_rate=r["lr"],
        seed=r["seed"])
    params, standardizer, report = surrogate.train(records, r["split"], mlp, tc)
    chance = surrogate.constant_predictor_ioe(records)
    io_formats.save_model(r["out"], params, standardizer, {
        **dataclasses.asdict(tc), "split": r["split"],
        "dataset": r["dataset"]})
    print(f"validation average IOE {report.average_ioe:.4f} "
          f"(worst {report.worst_ioe:.4f}, {report.count} samples); "
          f"constant-predictor IOE {chance.average_ioe:.4f}")
    print(f"wrote model -> {r['out']}")


def cmd_eval(r):
    params, standardizer = io_formats.load_model(r["model"])
    _, records = io_formats.load_dataset(r["dataset"])
    report = surrogate.evaluate_ioe(params, standardizer, records)
    chance = surrogate.constant_predictor_ioe(records)
    print(f"average IOE {report.average_ioe:.4f}  worst {report.worst_ioe:.4f}"
          f"  samples {report.count}  chance {chance.average_ioe:.4f}")


def cmd_search(r):
    params, standardizer = io_formats.load_model(r["model"])
    header, records = io_formats.load_dataset(r["dataset"])
    spec = header.spec
    order = construction.ga_reliabilities(spec, header.design_ebn0_db)
    base_mask = construction.build_mask(spec, order)
    cfg = search.PgdConfig(r["iters"], r["mu"], r["restarts"], r["seed"],
                           r["topk"])
    reports = search.search_and_validate(
        params, standardizer, cfg, spec, header.decoder,
        ChannelConfig(header.ebn0_db, spec.rate), _mc_from(r), base_mask)
    if not reports:
        raise NumericError("every PGD restart aborted; no candidates written")
    io_formats.save_candidates(r["out"], spec, reports)
    best_data = min((rec.fer_estimate.fer for rec in records), default=None)
    for rep in reports[:r["topk"]]:
        val = "-" if rep.validated is None else f"{rep.validated.fer:.4e}"
        print(f"  pred {rep.predicted_fer:.4e}  validated {val}  "
              f"(restart {rep.restart_index})")
    if best_data is not None:
        print(f"best dataset FER for comparison: {best_data:.4e}")
    print(f"wrote {len(reports)} candidates -> {r['out']}")


def cmd_plot(r):
    curves = {}
    for spec_token in r["curve"]:
        if "=" in spec_token:
            label, path = spec_token.split("=", 1)
        else:
            label, path = os.path.basename(spec_token), spec_token
        if label in curves:
            raise InvalidArgument(f"two curves are labelled {label!r}; "
                                  f"name each one as label=path")
        curves[label] = io_formats.load_fer_curve(path)
    io_formats.write_atomic(r["out"], io_formats.render_fer_svg(curves))
    print(f"wrote {r['out']}")


# ---------------------------------------------------------------------------
# parser wiring

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polarlab",
        description="Polar-code construction laboratory: GA baselines, "
                    "Monte Carlo FER, surrogate training, and PGD search.")
    parser.add_argument("--verbose", action="store_true",
                        help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    table = {}

    def register(name, func, opts, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=None,
                       help="flat key=value config file")
        _add_options(p, opts)
        table[name] = (func, opts)
        return p

    register("construct", cmd_construct, [
        _Opt("--n", int, None, "block length (power of two)"),
        _Opt("--k", int, None, "information bits"),
        _Opt("--ebn0", float, 2.0, "design Eb/N0 in dB"),
        _Opt("--out", str, "mask.txt", "output mask file"),
    ], "GA construction: write the baseline frozen mask")

    register("simulate", cmd_simulate, [
        _Opt("--mask", str, "mask.txt", "input mask file"),
        _Opt("--ebn0", str, "0.8:6.0:0.4", "Eb/N0 sweep a:b:step or list"),
        _Opt("--out", str, "fer", "output path prefix (.csv/.svg)"),
        _LIST_SIZE_OPT, *_MC_OPTS,
    ], "Monte Carlo FER curve for a stored mask")

    register("dataset", cmd_dataset, [
        _Opt("--n", int, None, "block length (power of two)"),
        _Opt("--k", int, None, "information bits"),
        _Opt("--ebn0", float, 2.0, "simulation Eb/N0 in dB"),
        _Opt("--design-ebn0", float, 2.0, "GA design Eb/N0 in dB"),
        _Opt("--range-r", int, 8, "shuffle window half-width"),
        _Opt("--count-d", int, 100, "number of shuffled variants"),
        _Opt("--out", str, "dataset.txt", "output dataset file"),
        _LIST_SIZE_OPT, *_MC_OPTS,
    ], "generate a shuffled-mask FER dataset")

    register("train", cmd_train, [
        _Opt("--dataset", str, "dataset.txt", "input dataset file"),
        _Opt("--epochs", int, 200, "training epochs"),
        _Opt("--hidden", int, 320, "hidden width H"),
        _Opt("--depth", int, 6, "depth L (number of weight layers)"),
        _Opt("--gap", int, 3, "shortcut gap G"),
        _Opt("--split", float, 0.8, "training fraction of the dataset"),
        _Opt("--batch-size", int, 64, "minibatch size"),
        _Opt("--lr", float, 1e-3, "Adam learning rate"),
        _Opt("--seed", int, 0, "global RNG seed"),
        _Opt("--out", str, "model.txt", "output model file"),
    ], "train the surrogate FER predictor")

    register("eval", cmd_eval, [
        _Opt("--model", str, "model.txt", "input model file"),
        _Opt("--dataset", str, "dataset.txt", "input dataset file"),
    ], "report IOE of a stored model on a dataset")

    register("search", cmd_search, [
        _Opt("--model", str, "model.txt", "input model file"),
        _Opt("--dataset", str, "dataset.txt",
             "dataset file (supplies code spec, decoder, channel, base "
             "mask)"),
        _Opt("--iters", int, 5000, "PGD iterations per restart"),
        _Opt("--mu", float, 0.1, "PGD step size"),
        _Opt("--restarts", int, 64, "independent restarts"),
        _Opt("--topk", int, 8, "candidates to validate by simulation"),
        _Opt("--out", str, "candidates.txt", "output candidate report"),
        *_MC_OPTS,
    ], "PGD mask search guided by a trained surrogate")

    plot = register("plot", cmd_plot, [
        _Opt("--out", str, "curves.svg", "output SVG file"),
    ], "combine FER CSVs into one SVG chart")
    plot.add_argument("curve", nargs="+",
                      help="FER CSV paths, optionally label=path")

    return parser, table


# exception -> exit code (see the module docstring); the first match wins
_EXIT_CODES = [(InvalidArgument, 2), (SchemaError, 3),
               ((NumericError, InvalidState), 4), (PolarLabError, 1)]


def main(argv=None) -> int:
    parser, table = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    func, opts = table[args.command]
    try:
        r = _resolve(args, opts)
        if args.command == "plot":
            r["curve"] = args.curve  # positional, so not resolved
        func(r)
        if "out" in r:  # only after the stage succeeded
            _write_manifest(r["out"], args.command, r)
        return 0
    except PolarLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES
                    if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
