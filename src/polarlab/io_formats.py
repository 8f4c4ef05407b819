"""Versioned text formats for masks, datasets, models, and FER curves.

Everything is line-oriented UTF-8 text. Floats are written with 17
significant digits so doubles round-trip exactly; identical in-memory
objects always serialize to byte-identical files. Every writer replaces
its file atomically, so an interrupted save leaves the previous file.
Loaders validate and reject rather than repair.
"""

import math
import os
import secrets
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .channel import ChannelConfig, FerEstimate
from .codec import CodeSpec, DecoderConfig, FrozenMask
from .construction import PHI_COEFFS, DatasetRecord
from .errors import InvalidArgument, SchemaError
from .surrogate import MlpConfig, MlpParams, Standardizer, init_params

__all__ = [
    "DatasetHeader",
    "save_mask", "load_mask",
    "save_dataset", "load_dataset",
    "save_model", "load_model",
    "save_candidates",
    "emit_fer_curve", "load_fer_curve", "render_fer_svg",
    "write_atomic",
]

MASK_VERSION = "polarlab-mask v1"
DATASET_VERSION = "polarlab-dataset v1"
MODEL_VERSION = "polarlab-model v1"
FER_CSV_HEADER = "ebn0_db,fer,ci_halfwidth,frames"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_atomic(path: str, text: str) -> None:
    """Write text to a temporary file beside path, flush it to disk and
    rename it over path, so readers see the old file or the new one."""
    # open(..., "x") rather than mkstemp, which would create the file 0600
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_lines(path: str, lines) -> None:
    write_atomic(path, "\n".join(lines) + "\n")


def _header_lines(version: str, items) -> list[str]:
    return [f"# {version}"] + [f"# {key}: {value}" for key, value in items]


_TYPE_NAMES = {int: "an integer", float: "a number"}


def _parse(type_, token: str, path: str, lineno: int):
    """token as int, float or str; a bad token is reported at lineno."""
    try:
        return type_(token)
    except ValueError:
        raise SchemaError(f"{path}:{lineno}: not {_TYPE_NAMES[type_]}: "
                          f"{token!r}") from None


def _build(path: str, what: str, make, *args):
    """make(*args), with an InvalidArgument turned into a SchemaError."""
    try:
        return make(*args)
    except InvalidArgument as exc:
        raise SchemaError(f"{path}: invalid {what}: {exc}") from exc


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _body_rows(lines, start: int) -> list[tuple[int, str]]:
    """(line number, stripped text) of every non-blank, non-comment line
    from index start on."""
    return [(i, ln.strip()) for i, ln in enumerate(lines[start:], start + 1)
            if ln.strip() and not ln.startswith("#")]


def _read_artifact(path: str, version: str):
    """Read a file whose line 1 names version; return its leading
    '# key: value' lines as {key: (value, line number)} and its body rows."""
    lines = _read_lines(path)
    if not lines or lines[0] != f"# {version}":
        got = lines[0] if lines else "<empty file>"
        raise SchemaError(f"{path}:1: expected '# {version}', got {got!r}")
    fields: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.startswith("#"):
            break
        text = line[1:].strip()
        if not text:
            continue
        if ":" not in text:
            raise SchemaError(f"{path}:{lineno}: malformed header line {line!r}")
        key, value = text.split(":", 1)
        fields[key.strip()] = (value.strip(), lineno)
    return fields, _body_rows(lines, 1)


def _field(fields, key: str, type_, path: str):
    """The header value under key as type_, citing its own line."""
    if key not in fields:
        raise SchemaError(f"{path}: missing header field {key!r}")
    value, lineno = fields[key]
    return _parse(type_, value, path, lineno)


def _spec_items(spec: CodeSpec):
    return [("n", spec.n_bits), ("k", spec.k_info)]


def _spec_from(fields, path: str) -> CodeSpec:
    return _build(path, "code spec", CodeSpec, _field(fields, "n", int, path),
                  _field(fields, "k", int, path))


# ---------------------------------------------------------------------------
# masks

def save_mask(path: str, spec: CodeSpec, mask: FrozenMask,
              provenance: dict | None = None) -> None:
    mask.validate_for(spec)
    items = _spec_items(spec) + list((provenance or {}).items())
    _write_lines(path, _header_lines(MASK_VERSION, items)
                 + [_mask_string(mask)])


def load_mask(path: str) -> tuple[CodeSpec, FrozenMask]:
    fields, rows = _read_artifact(path, MASK_VERSION)
    spec = _spec_from(fields, path)
    if len(rows) != 1:
        raise SchemaError(f"{path}: expected exactly one mask row, "
                          f"got {len(rows)}")
    lineno, row = rows[0]
    return spec, _parse_mask_string(row, spec, path, lineno)


def _mask_string(mask: FrozenMask) -> str:
    """The 0/1 text form of a mask (1 = frozen) that every file stores."""
    return (mask.bits + ord("0")).tobytes().decode("ascii")


def _parse_mask_string(token, spec, path, lineno) -> FrozenMask:
    if len(token) != spec.n_bits or set(token) - {"0", "1"}:
        raise SchemaError(
            f"{path}:{lineno}: mask must be {spec.n_bits} chars of 0/1")
    bits = np.frombuffer(token.encode(), dtype=np.uint8) - ord("0")
    if int(bits.sum()) != spec.n_bits - spec.k_info:
        raise SchemaError(
            f"{path}:{lineno}: mask has {int(bits.sum())} frozen bits, "
            f"expected {spec.n_bits - spec.k_info}")
    return FrozenMask(bits)


def _fer_string(est: FerEstimate) -> str:
    """The 'fer frames frame_errors' columns of a dataset or candidate row."""
    return f"{_fmt(est.fer)} {est.frames} {est.frame_errors}"


def _parse_fer_tokens(tokens, ebn0_db, path, lineno) -> FerEstimate:
    fer = _parse(float, tokens[0], path, lineno)
    frames, errors = (_parse(int, t, path, lineno) for t in tokens[1:])
    if frames < 1 or not 0 <= errors <= frames:
        raise SchemaError(f"{path}:{lineno}: inconsistent frame counts")
    if fer != errors / frames:
        raise SchemaError(f"{path}:{lineno}: fer {tokens[0]} != "
                          f"frame_errors/frames {_fmt(errors / frames)}")
    return FerEstimate.from_counts(errors, frames, ebn0_db)


# ---------------------------------------------------------------------------
# datasets

@dataclass(frozen=True)
class DatasetHeader:
    """Everything needed to regenerate or audit a dataset file; its fields,
    in order, are the file's header lines, followed by the PHI_COEFFS."""

    n: int
    k: int
    algorithm: str
    list_size: int
    ebn0_db: float
    design_ebn0_db: float
    range_r: int
    count_d: int
    seed: int

    @property
    def spec(self) -> CodeSpec:
        return CodeSpec(self.n, self.k)

    @property
    def decoder(self) -> DecoderConfig:
        """The decoder that labelled the dataset's records."""
        return DecoderConfig(self.algorithm, self.list_size)


def save_dataset(path: str, header: DatasetHeader,
                 records: list[DatasetRecord]) -> None:
    spec = header.spec
    items = []
    for f in dataclass_fields(DatasetHeader):
        value = getattr(header, f.name)
        items.append((f.name, _fmt(value) if f.type is float else value))
    items += [(f"phi_{key}", _fmt(v)) for key, v in PHI_COEFFS.items()]
    lines = _header_lines(DATASET_VERSION, items)
    for rec in records:
        rec.mask.validate_for(spec)
        lines.append(
            f"{_mask_string(rec.mask)} {_fer_string(rec.fer_estimate)}")
    _write_lines(path, lines)


def load_dataset(path: str) -> tuple[DatasetHeader, list[DatasetRecord]]:
    fields, rows = _read_artifact(path, DATASET_VERSION)
    header_fields = dataclass_fields(DatasetHeader)
    phi_keys = [f"phi_{key}" for key in PHI_COEFFS]
    known = {f.name for f in header_fields} | set(phi_keys)
    unknown = [key for key in fields if key not in known]
    if unknown:
        raise SchemaError(f"{path}: unknown header fields {unknown}")
    header = DatasetHeader(*(_field(fields, f.name, f.type, path)
                             for f in header_fields))
    for key in phi_keys:
        _field(fields, key, float, path)
    spec = _spec_from(fields, path)
    _build(path, "decoder", lambda: header.decoder)
    for key in ("ebn0_db", "design_ebn0_db"):
        _build(f"{path}:{fields[key][1]}", "channel", ChannelConfig,
               getattr(header, key), spec.rate)
    records = []
    for lineno, row in rows:
        tokens = row.split()
        if len(tokens) != 4:
            raise SchemaError(
                f"{path}:{lineno}: expected 4 fields, got {len(tokens)}")
        mask = _parse_mask_string(tokens[0], spec, path, lineno)
        est = _parse_fer_tokens(tokens[1:], header.ebn0_db, path, lineno)
        records.append(DatasetRecord(mask, est))
    return header, records


# ---------------------------------------------------------------------------
# models

def _vector_line(name, vec) -> str:
    return f"{name} {' '.join(_fmt(v) for v in np.ravel(vec))}"


def _model_rows(params: MlpParams, in_stats, out_stats):
    """(name, array) of every model row after kept_indices, in file order.
    in_stats holds in_mean and in_std, out_stats out_mean and out_std. Each
    array is the model's own or a view of it, so a reader can fill it in
    place, except a layer row's [index, rows, cols]."""
    yield "in_mean", in_stats[0]
    yield "in_std", in_stats[1]
    yield "out_mean", out_stats[:1]
    yield "out_std", out_stats[1:]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        yield "layer", np.array([i, *w.shape])
        for row in w:
            yield f"w{i}", row
        yield f"b{i}", b


def save_model(path: str, params: MlpParams, standardizer: Standardizer,
               train_echo: dict | None = None) -> None:
    cfg = params.config
    lines = [f"# {MODEL_VERSION}"]
    lines += [f"{f.name} {getattr(cfg, f.name)}"
              for f in dataclass_fields(MlpConfig)]
    lines.append("batchnorm 0")  # a format v1 row; the loader takes only 0
    lines += [f"# train.{key}: {value}"
              for key, value in (train_echo or {}).items()]
    lines.append("kept_indices "
                 + " ".join(str(i) for i in standardizer.kept_indices))
    out_stats = np.array([standardizer.out_mean, standardizer.out_std])
    lines += [_vector_line(name, vec) for name, vec in _model_rows(
        params, (standardizer.in_mean, standardizer.in_std), out_stats)]
    _write_lines(path, lines)


def load_model(path: str) -> tuple[MlpParams, Standardizer]:
    _, rows = _read_artifact(path, MODEL_VERSION)
    body = iter(rows)
    end = rows[-1][0] + 1 if rows else 2  # where a missing row would be
    at = []  # the line number of every row read

    def values(name, type_, size=None) -> list:
        """The values of the next row, which must be named name."""
        lineno, line = next(body, (end, "<end-of-file>"))
        at.append(lineno)
        got, *tokens = line.split()
        if got != name:
            raise SchemaError(
                f"{path}:{lineno}: expected {name!r}, got {got!r}")
        if size is not None and len(tokens) != size:
            raise SchemaError(f"{path}:{lineno}: {name!r} has {len(tokens)} "
                              f"values, expected {size}")
        parsed = [_parse(type_, t, path, lineno) for t in tokens]
        if type_ is float and not all(map(math.isfinite, parsed)):
            raise SchemaError(
                f"{path}:{lineno}: {name!r} values must be finite")
        return parsed

    config = [values(f.name, int, 1)[0] for f in dataclass_fields(MlpConfig)]
    cfg = _build(f"{path}:{at[0]}-{at[-1]}", "model config", MlpConfig,
                 *config)
    if values("batchnorm", int, 1) != [0]:
        raise SchemaError(f"{path}:{at[-1]}: batchnorm must be 0 (BatchNorm "
                          f"models are not supported)")
    kept = values("kept_indices", int)  # Standardizer checks the range
    # every value init_params draws is overwritten by a row below
    params = init_params(cfg, len(kept), np.random.default_rng(0))
    in_stats, out_stats = np.empty((2, len(kept))), np.empty(2)
    for name, array in _model_rows(params, in_stats, out_stats):
        if name != "layer":
            array[...] = values(name, float, array.size)
        elif values(name, int, 3) != array.tolist():
            raise SchemaError(f"{path}:{at[-1]}: layer index and shape "
                              f"inconsistent with config, expected "
                              f"{' '.join(map(str, array))}")
    for lineno, line in body:
        raise SchemaError(f"{path}:{lineno}: unknown trailing field "
                          f"{line.split()[0]!r}")
    return params, _build(f"{path}:{at[4]}-{at[8]}", "standardizer",
                          Standardizer, kept, *in_stats, *out_stats.tolist())


# ---------------------------------------------------------------------------
# candidate reports

def save_candidates(path: str, spec: CodeSpec, reports) -> None:
    """Search results, best first; validated FER is '-' when unavailable."""
    lines = _header_lines("polarlab-candidates v1", _spec_items(spec) + [
        ("columns", "mask predicted_fer validated_fer frames frame_errors "
                    "restart best_iteration")])
    for rep in reports:
        val = "- - -" if rep.validated is None else _fer_string(rep.validated)
        lines.append(f"{_mask_string(rep.mask)} {_fmt(rep.predicted_fer)} "
                     f"{val} {rep.restart_index} {rep.best_iteration}")
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# FER curves

_SVG_W, _SVG_H = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 20, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def emit_fer_curve(points: list[tuple[float, FerEstimate]],
                   path_prefix: str, label: str = "FER") -> tuple[str, str]:
    """Write <prefix>.csv and <prefix>.svg; returns the two paths."""
    if not points:
        raise InvalidArgument("emit_fer_curve needs at least one point")
    csv_path = path_prefix + ".csv"
    svg_path = path_prefix + ".svg"
    _write_lines(csv_path, [FER_CSV_HEADER] + [
        f"{_fmt(ebn0)},{_fmt(est.fer)},{_fmt(est.ci_halfwidth)},{est.frames}"
        for ebn0, est in points])
    curve = [(ebn0, est.fer) for ebn0, est in points]
    write_atomic(svg_path, render_fer_svg({label: curve}))
    return csv_path, svg_path


def load_fer_curve(path: str) -> list[tuple[float, float]]:
    """The (ebn0_db, fer) points of a CSV written by emit_fer_curve.

    Every column is checked: a finite Eb/N0, a FER in [0, 1], a finite
    ci_halfwidth >= 0 and an integer frame count >= 1."""
    lines = _read_lines(path)
    if not lines or lines[0] != FER_CSV_HEADER:
        raise SchemaError(f"{path}:1: not a polarlab FER CSV")
    points = []
    for lineno, row in _body_rows(lines, 1):
        cols = row.split(",")
        if len(cols) != 4:
            raise SchemaError(f"{path}:{lineno}: expected 4 columns")
        ebn0, fer, halfwidth = (_parse(float, c, path, lineno)
                                for c in cols[:3])
        frames = _parse(int, cols[3], path, lineno)
        if not math.isfinite(ebn0):
            raise SchemaError(f"{path}:{lineno}: Eb/N0 must be finite, "
                              f"got {cols[0]!r}")
        if not 0 <= fer <= 1:  # false for NaN too
            raise SchemaError(f"{path}:{lineno}: FER must be in [0, 1], "
                              f"got {cols[1]!r}")
        if not 0 <= halfwidth < math.inf:  # false for NaN too
            raise SchemaError(f"{path}:{lineno}: ci_halfwidth must be "
                              f"finite and >= 0, got {cols[2]!r}")
        if frames < 1:
            raise SchemaError(f"{path}:{lineno}: frames must be >= 1, "
                              f"got {cols[3]!r}")
        points.append((ebn0, fer))
    return points


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_fer_svg(curves: dict[str, list[tuple[float, float]]]) -> str:
    """Self-contained SVG line chart, FER on a log axis, one curve per label.

    Zero-FER points cannot be drawn on a log axis and are skipped.
    """
    # imported here: saxutils imports urllib.request, http.client and email
    # (~2.4 MB), which every process that imports polarlab would carry
    from xml.sax.saxutils import escape

    plotted = {label: [(x, y) for x, y in pts if y > 0]
               for label, pts in curves.items()}
    all_pts = [p for pts in plotted.values() for p in pts]
    if not all_pts:
        raise InvalidArgument("no positive-FER points to plot")
    xs = [p[0] for p in all_pts]
    lys = [np.log10(p[1]) for p in all_pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = np.floor(min(lys)), np.ceil(max(lys))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(log_fer):
        return _MARGIN_T + (y_hi - log_fer) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        x = px(xt)
        parts.append(f'<line x1="{x:.2f}" y1="{_MARGIN_T}" x2="{x:.2f}" '
                     f'y2="{_MARGIN_T + plot_h}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" '
                     f'font-size="12" text-anchor="middle">{xt:.2f}</text>')
    for lt in np.arange(y_lo, y_hi + 0.5):
        y = py(lt)
        parts.append(f'<line x1="{_MARGIN_L}" y1="{y:.2f}" '
                     f'x2="{_MARGIN_L + plot_w}" y2="{y:.2f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{_MARGIN_L - 6}" y="{y + 4:.2f}" '
                     f'font-size="12" text-anchor="end">1e{int(lt)}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2}" y="{_SVG_H - 12}" '
                 f'font-size="13" text-anchor="middle">Eb/N0 (dB)</text>')
    parts.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{_MARGIN_T + plot_h / 2})">FER</text>')
    for ci, (label, pts) in enumerate(plotted.items()):
        color = _COLORS[ci % len(_COLORS)]
        coords = [(px(x), py(np.log10(y))) for x, y in sorted(pts)]
        if len(coords) > 1:
            d = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
            parts.append(f'<polyline points="{d}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        for x, y in coords:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{_MARGIN_L + plot_w - 8}" '
                     f'y="{_MARGIN_T + 16 + 16 * ci}" font-size="12" '
                     f'text-anchor="end" fill="{color}">{escape(label)}'
                     f'</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
