"""Span tracer that wraps polarlab's public functions at their import sites.

Only the traced run installs it; the untraced run never constructs one, so
the end-to-end numbers come from unpatched code. A span records its name,
start, end, parent span and thread. Spans opened on a thread with no open
span of its own (the Monte Carlo pool threads) attach to the innermost open
`estimate_fer` span, which is the call that started that pool. Spans stay in
memory until `write_jsonl` is called at the end of the run.
"""

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

import polarlab.channel
import polarlab.construction
import polarlab.io_formats
import polarlab.search
import polarlab.surrogate


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _est_attrs(args, kwargs, result):
    mc = kwargs.get("mc", args[4] if len(args) > 4 else None)
    return {"workers": mc.workers, "target": mc.target_frame_errors,
            "max_frames": mc.max_frames, "frames": result.frames,
            "errors": result.frame_errors}


def _rows_attrs(args, kwargs, result):
    return {"rows": int(args[-1].shape[0])}


def _path_attrs(args, kwargs, result):
    path = args[0]
    return {"bytes": os.path.getsize(path)}


def _dataset_attrs(args, kwargs, result):
    return {"records": len(result),
            "zero_error": sum(r.fer_estimate.frame_errors == 0
                              for r in result)}


def _train_attrs(args, kwargs, result):
    tc = kwargs.get("tc", args[3] if len(args) > 3 else None)
    return {"epochs": tc.epochs, "val_ioe": result[2].average_ioe}


def _pgd_attrs(args, kwargs, result):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    return {"iterations": config.iterations_i}


# (module, attribute, span name, attribute extractor). The first block is
# what the library calls internally; the second is what the benchmark
# itself calls, wrapped on the module object it calls through.
WRAP_SITES = [
    (polarlab.channel, "encode", "codec.encode", _rows_attrs),
    (polarlab.channel, "transmit", "channel.transmit", None),
    (polarlab.channel, "decode_batch", "codec.decode_batch", _rows_attrs),
    (polarlab.construction, "estimate_fer", "channel.estimate_fer",
     _est_attrs),
    (polarlab.search, "estimate_fer", "channel.estimate_fer", _est_attrs),
    (polarlab.search, "output_and_input_gradient",
     "surrogate.output_and_input_gradient", None),
    (polarlab.search, "quantize", "search.quantize", None),
    (polarlab.search, "pgd_run", "search.pgd_run", _pgd_attrs),

    (polarlab.channel, "estimate_fer", "channel.estimate_fer", _est_attrs),
    (polarlab.construction, "ga_reliabilities",
     "construction.ga_reliabilities", None),
    (polarlab.construction, "generate_dataset",
     "construction.generate_dataset", _dataset_attrs),
    (polarlab.surrogate, "train", "surrogate.train", _train_attrs),
    (polarlab.search, "search_and_validate", "search.search_and_validate",
     None),
    (polarlab.io_formats, "save_dataset", "io_formats.save_dataset",
     _path_attrs),
    (polarlab.io_formats, "load_dataset", "io_formats.load_dataset", None),
    (polarlab.io_formats, "save_model", "io_formats.save_model", _path_attrs),
    (polarlab.io_formats, "load_model", "io_formats.load_model", None),
    (polarlab.io_formats, "save_candidates", "io_formats.save_candidates",
     _path_attrs),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent: list[int] = []
        self._originals: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, args=(), kwargs=None, attrs_fn=None):
        """Run fn(*args, **kwargs) inside a span named `name`; attrs_fn
        maps (args, kwargs, result) to the span's attributes."""
        kwargs = kwargs or {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._pool_parent[-1] if self._pool_parent else None
        span_id = next(self._ids)
        is_mc = name == "channel.estimate_fer"
        stack.append(span_id)
        if is_mc:
            self._pool_parent.append(span_id)
        attrs = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        else:
            if attrs_fn is not None:
                attrs.update(attrs_fn(args, kwargs, result))
            return result
        finally:
            end = time.perf_counter()
            if is_mc:
                self._pool_parent.pop()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   threading.get_ident(), attrs))

    def run(self, name: str, fn, *args):
        """Install the wrappers, run bench code fn(*args) inside a root span
        named `name`, and restore the originals."""
        self.install()
        try:
            return self.span(name, fn, args)
        finally:
            self.uninstall()

    def _wrap(self, original, name, attrs_fn):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(name, original, args, kwargs, attrs_fn)
        return wrapper

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module, attr, name, attrs_fn in WRAP_SITES:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs_fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "thread": s.thread,
                                     "attrs": s.attrs}) + "\n")


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        out[s.id] = s.dur - _union_length(k for k in kids if k[1] > k[0])
    return out
