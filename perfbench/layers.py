"""Per-layer metrics derived from the traced run's spans.

Sums and counts are per traced op (mean over traced ops), so they do not
grow when a faster program fits more ops into a run. `construction.ga_s` is
the one set-up figure. Layer shares divide each layer's self time, summed
over all threads, by the total self time of all spans under traced ops.
"""

import statistics

from tracer import Span, self_times

# name -> unit; the order here is the order in BENCHMARK.json
PER_LAYER = {
    "codec.decode_s": "s",
    "codec.decode_us_per_frame": "us",
    "codec.decode_share": "ratio",
    "codec.encode_s": "s",
    "channel.transmit_s": "s",
    "channel.self_s": "s",
    "channel.estimate_fer_calls": "count",
    "channel.frames": "count",
    "channel.frame_errors": "count",
    "channel.overshoot_errors": "count",
    "channel.worker_busy_frac": "ratio",
    "construction.ga_s": "s",
    "construction.masks_unique": "count",
    "construction.masks_skipped": "count",
    "construction.zero_error_masks": "count",
    "construction.self_s": "s",
    "surrogate.train_s": "s",
    "surrogate.epoch_s": "s",
    "surrogate.val_ioe": "ratio",
    "surrogate.grad_calls": "count",
    "surrogate.grad_us": "us",
    "search.search_s": "s",
    "search.pgd_run_s": "s",
    "search.pgd_iter_us": "us",
    "search.quantize_us": "us",
    "search.restarts_aborted": "count",
    "search.validate_s": "s",
    "io_formats.save_dataset_s": "s",
    "io_formats.load_dataset_s": "s",
    "io_formats.save_model_s": "s",
    "io_formats.load_model_s": "s",
    "io_formats.save_candidates_s": "s",
    "io_formats.bytes_written": "bytes",
    "share.codec": "ratio",
    "share.channel": "ratio",
    "share.construction": "ratio",
    "share.surrogate": "ratio",
    "share.search": "ratio",
    "share.io_formats": "ratio",
    "share.bench": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.ops": "count",
}

LAYERS = ("codec", "channel", "construction", "surrogate", "search",
          "io_formats", "bench")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span], traced_walls: list[float],
                      untraced_walls: list[float]) -> dict[str, float]:
    by_id = {s.id: s for s in spans}
    root_of: dict[int, Span] = {}

    def root(s: Span) -> Span:
        if s.id not in root_of:
            root_of[s.id] = s if s.parent is None else root(by_id[s.parent])
        return root_of[s.id]

    setup = [s for s in spans if root(s).name == "bench.setup"]
    spans = [s for s in spans if root(s).name == "bench.op"]
    ops = max(1, sum(s.name == "bench.op" for s in spans))
    selfs = self_times(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.dur for s in named(name))

    def mean_us(name):
        found = named(name)
        return _ratio(1e6 * sum(s.dur for s in found), len(found))

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    est = named("channel.estimate_fer")
    est1 = [s for s in est if s.attrs.get("workers") == 1]
    est_n = [s for s in est if s.attrs.get("workers", 1) > 1]
    est1_ids = {s.id for s in est1}
    decode1 = [s for s in named("codec.decode_batch") if s.parent in est1_ids]
    busy = sum(c.dur for s in est_n for c in children.get(s.id, ())
               if c.thread != s.thread)
    gens = named("construction.generate_dataset")
    unique = sum(parent_name(s) == "construction.generate_dataset"
                 for s in est)
    trains = named("surrogate.train")
    pgd = named("search.pgd_run")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s.name.split(".")[0]] += selfs[s.id]
    all_self = sum(layer_self.values())

    m = {
        "codec.decode_s": total("codec.decode_batch") / ops,
        "codec.decode_us_per_frame": _ratio(
            1e6 * sum(s.dur for s in decode1),
            sum(s.attrs["rows"] for s in decode1)),
        "codec.decode_share": _ratio(sum(s.dur for s in decode1),
                                     sum(s.dur for s in est1)),
        "codec.encode_s": total("codec.encode") / ops,
        "channel.transmit_s": total("channel.transmit") / ops,
        "channel.self_s": sum(selfs[s.id] for s in est1) / ops,
        "channel.estimate_fer_calls": len(est) / ops,
        "channel.frames": sum(s.attrs.get("frames", 0) for s in est) / ops,
        "channel.frame_errors":
            sum(s.attrs.get("errors", 0) for s in est) / ops,
        "channel.overshoot_errors": sum(
            s.attrs["errors"] - s.attrs["target"] for s in est
            if s.attrs.get("errors", -1) >= s.attrs.get("target", 0)) / ops,
        "channel.worker_busy_frac": _ratio(
            busy, sum(s.dur * s.attrs["workers"] for s in est_n)),
        "construction.ga_s": sum(s.dur for s in setup
                                 if s.name == "construction.ga_reliabilities"),
        "construction.masks_unique": unique / ops,
        "construction.masks_skipped":
            (unique - sum(s.attrs.get("records", 0) for s in gens)) / ops,
        "construction.zero_error_masks":
            sum(s.attrs.get("zero_error", 0) for s in gens) / ops,
        "construction.self_s": sum(selfs[s.id] for s in gens) / ops,
        "surrogate.train_s": total("surrogate.train") / ops,
        "surrogate.epoch_s": _ratio(sum(s.dur for s in trains),
                                    sum(s.attrs.get("epochs", 0)
                                        for s in trains)),
        "surrogate.val_ioe": statistics.median(
            [s.attrs["val_ioe"] for s in trains if "val_ioe" in s.attrs]
            or [0.0]),
        "surrogate.grad_calls":
            len(named("surrogate.output_and_input_gradient")) / ops,
        "surrogate.grad_us": mean_us("surrogate.output_and_input_gradient"),
        "search.search_s": total("search.search_and_validate") / ops,
        "search.pgd_run_s": total("search.pgd_run") / ops,
        "search.pgd_iter_us": _ratio(
            1e6 * sum(s.dur for s in pgd),
            sum(s.attrs.get("iterations", 0) for s in pgd)),
        "search.quantize_us": mean_us("search.quantize"),
        "search.restarts_aborted":
            sum("error" in s.attrs for s in pgd) / ops,
        "search.validate_s": sum(
            s.dur for s in est
            if parent_name(s) == "search.search_and_validate") / ops,
        "io_formats.bytes_written": sum(
            s.attrs.get("bytes", 0) for s in spans
            if s.name.startswith("io_formats.save")) / ops,
        "trace.overhead_frac": _ratio(
            statistics.median(traced_walls),
            statistics.median(untraced_walls)) - 1.0 if untraced_walls
            else 0.0,
        "trace.spans": len(spans) / ops,
        "trace.ops": ops,
    }
    for kind in ("save_dataset", "load_dataset", "save_model", "load_model",
                 "save_candidates"):
        m[f"io_formats.{kind}_s"] = total(f"io_formats.{kind}") / ops
    for layer in LAYERS:
        m[f"share.{layer}"] = _ratio(layer_self[layer], all_self)
    return {name: m[name] for name in PER_LAYER}
