"""Versioned text formats for masks, datasets, models, and FER curves.

Everything is line-oriented UTF-8 text. Floats are written with 17
significant digits so doubles round-trip exactly; identical in-memory
objects always serialize to byte-identical files. Every writer replaces
its file atomically, so an interrupted save leaves the previous file.
Loaders validate and reject rather than repair.
"""

import os
import secrets
from dataclasses import dataclass

import numpy as np

from .channel import FerEstimate
from .codec import CodeSpec, FrozenMask
from .construction import PHI_COEFFS, DatasetRecord
from .errors import InvalidArgument, SchemaError
from .surrogate import MlpConfig, MlpParams, Standardizer

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


def _parse_float(token: str, path: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise SchemaError(f"{path}:{lineno}: not a number: {token!r}") from None


def _parse_int(token: str, path: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise SchemaError(
            f"{path}:{lineno}: not an integer: {token!r}") from None


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _header_fields(lines, path, version):
    """Parse leading '# key: value' lines; line 1 must name the version."""
    if not lines or lines[0] != f"# {version}":
        got = lines[0] if lines else "<empty file>"
        raise SchemaError(f"{path}:1: expected '# {version}', got {got!r}")
    fields: dict[str, str] = {}
    body_start = 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.startswith("#"):
            body_start = lineno - 1
            break
        body_start = lineno
        text = line[1:].strip()
        if not text:
            continue
        if ":" not in text:
            raise SchemaError(f"{path}:{lineno}: malformed header line {line!r}")
        key, value = text.split(":", 1)
        fields[key.strip()] = value.strip()
    return fields, body_start


def _require(fields, keys, path):
    missing = [k for k in keys if k not in fields]
    if missing:
        raise SchemaError(f"{path}: missing header fields {missing}")
    unknown = [k for k in fields if k not in keys]
    if unknown:
        raise SchemaError(f"{path}: unknown header fields {unknown}")


# ---------------------------------------------------------------------------
# masks

def save_mask(path: str, spec: CodeSpec, mask: FrozenMask,
              provenance: dict | None = None) -> None:
    mask.validate_for(spec)
    lines = [f"# {MASK_VERSION}", f"# n: {spec.n_bits}", f"# k: {spec.k_info}"]
    for key, value in (provenance or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append(_mask_string(mask))
    write_atomic(path, "\n".join(lines) + "\n")


def load_mask(path: str) -> tuple[CodeSpec, FrozenMask]:
    lines = _read_lines(path)
    fields, body = _header_fields(lines, path, MASK_VERSION)
    for key in ("n", "k"):
        if key not in fields:
            raise SchemaError(f"{path}: missing header field {key!r}")
    n = _parse_int(fields["n"], path, 2)
    k = _parse_int(fields["k"], path, 3)
    try:
        spec = CodeSpec(n, k)
    except InvalidArgument as exc:
        raise SchemaError(f"{path}: invalid code spec: {exc}") from exc
    rows = [(i, ln) for i, ln in enumerate(lines[body:], start=body + 1)
            if ln.strip()]
    if len(rows) != 1:
        raise SchemaError(f"{path}: expected exactly one mask row, "
                          f"got {len(rows)}")
    lineno, row = rows[0]
    mask = _parse_mask_string(row.strip(), spec, path, lineno)
    return spec, mask


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


# ---------------------------------------------------------------------------
# datasets

@dataclass(frozen=True)
class DatasetHeader:
    """Everything needed to regenerate or audit a dataset file."""

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


_DATASET_KEYS = ["n", "k", "algorithm", "list_size", "ebn0_db",
                 "design_ebn0_db", "range_r", "count_d", "seed",
                 "phi_a", "phi_b", "phi_c", "phi_split"]


def save_dataset(path: str, header: DatasetHeader,
                 records: list[DatasetRecord]) -> None:
    spec = header.spec
    lines = [
        f"# {DATASET_VERSION}",
        f"# n: {header.n}",
        f"# k: {header.k}",
        f"# algorithm: {header.algorithm}",
        f"# list_size: {header.list_size}",
        f"# ebn0_db: {_fmt(header.ebn0_db)}",
        f"# design_ebn0_db: {_fmt(header.design_ebn0_db)}",
        f"# range_r: {header.range_r}",
        f"# count_d: {header.count_d}",
        f"# seed: {header.seed}",
        f"# phi_a: {_fmt(PHI_COEFFS['a'])}",
        f"# phi_b: {_fmt(PHI_COEFFS['b'])}",
        f"# phi_c: {_fmt(PHI_COEFFS['c'])}",
        f"# phi_split: {_fmt(PHI_COEFFS['split'])}",
    ]
    for rec in records:
        rec.mask.validate_for(spec)
        est = rec.fer_estimate
        lines.append(f"{_mask_string(rec.mask)} {_fmt(est.fer)} {est.frames} "
                     f"{est.frame_errors}")
    write_atomic(path, "\n".join(lines) + "\n")


def load_dataset(path: str) -> tuple[DatasetHeader, list[DatasetRecord]]:
    lines = _read_lines(path)
    fields, body = _header_fields(lines, path, DATASET_VERSION)
    _require(fields, _DATASET_KEYS, path)
    header = DatasetHeader(
        n=_parse_int(fields["n"], path, 2),
        k=_parse_int(fields["k"], path, 3),
        algorithm=fields["algorithm"],
        list_size=_parse_int(fields["list_size"], path, 5),
        ebn0_db=_parse_float(fields["ebn0_db"], path, 6),
        design_ebn0_db=_parse_float(fields["design_ebn0_db"], path, 7),
        range_r=_parse_int(fields["range_r"], path, 8),
        count_d=_parse_int(fields["count_d"], path, 9),
        seed=_parse_int(fields["seed"], path, 10),
    )
    try:
        spec = header.spec
    except InvalidArgument as exc:
        raise SchemaError(f"{path}: invalid code spec: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines[body:], start=body + 1):
        if not line.strip() or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise SchemaError(
                f"{path}:{lineno}: expected 4 fields, got {len(tokens)}")
        mask = _parse_mask_string(tokens[0], spec, path, lineno)
        fer = _parse_float(tokens[1], path, lineno)
        frames = _parse_int(tokens[2], path, lineno)
        errors = _parse_int(tokens[3], path, lineno)
        if frames < 1 or not 0 <= errors <= frames:
            raise SchemaError(f"{path}:{lineno}: inconsistent frame counts")
        if fer != errors / frames:
            raise SchemaError(
                f"{path}:{lineno}: fer {tokens[1]} != frame_errors/frames "
                f"{_fmt(errors / frames)}")
        est = FerEstimate.from_counts(errors, frames, header.ebn0_db)
        records.append(DatasetRecord(mask, est))
    return header, records


# ---------------------------------------------------------------------------
# models

def _write_vector(lines, name, vec):
    lines.append(f"{name} {' '.join(_fmt(v) for v in np.ravel(vec))}")


def save_model(path: str, params: MlpParams, standardizer: Standardizer,
               train_echo: dict | None = None) -> None:
    cfg = params.config
    lines = [
        f"# {MODEL_VERSION}",
        f"depth_l {cfg.depth_l}",
        f"hidden_h {cfg.hidden_h}",
        f"shortcut_g {cfg.shortcut_g}",
        f"batchnorm {int(params.bn_gamma is not None)}",
    ]
    for key, value in (train_echo or {}).items():
        lines.append(f"# train.{key}: {value}")
    lines.append("kept_indices "
                 + " ".join(str(i) for i in standardizer.kept_indices))
    _write_vector(lines, "in_mean", standardizer.in_mean)
    _write_vector(lines, "in_std", standardizer.in_std)
    lines.append(f"out_mean {_fmt(standardizer.out_mean)}")
    lines.append(f"out_std {_fmt(standardizer.out_std)}")
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        lines.append(f"layer {i} {w.shape[0]} {w.shape[1]}")
        for row in w:
            _write_vector(lines, f"w{i}", row)
        _write_vector(lines, f"b{i}", b)
    if params.bn_gamma is not None:
        for i in range(len(params.bn_gamma)):
            _write_vector(lines, f"bn_gamma{i}", params.bn_gamma[i])
            _write_vector(lines, f"bn_beta{i}", params.bn_beta[i])
            _write_vector(lines, f"bn_mean{i}", params.bn_mean[i])
            _write_vector(lines, f"bn_var{i}", params.bn_var[i])
    write_atomic(path, "\n".join(lines) + "\n")


class _ModelReader:
    """Sequential reader over 'name value...' lines with schema diagnostics."""

    def __init__(self, path, lines, start):
        self.path = path
        self.lines = [(i, ln) for i, ln in enumerate(lines[start:],
                                                     start=start + 1)
                      if ln.strip() and not ln.startswith("#")]
        self.pos = 0

    def take(self, expect: str) -> tuple[int, list[str]]:
        if self.pos >= len(self.lines):
            raise SchemaError(
                f"{self.path}: truncated file, expected {expect!r}")
        lineno, line = self.lines[self.pos]
        self.pos += 1
        name, *rest = line.split()
        if name != expect:
            raise SchemaError(
                f"{self.path}:{lineno}: expected {expect!r}, got {name!r}")
        return lineno, rest

    def vector(self, expect: str, size: int) -> np.ndarray:
        lineno, rest = self.take(expect)
        if len(rest) != size:
            raise SchemaError(f"{self.path}:{lineno}: {expect!r} has "
                              f"{len(rest)} values, expected {size}")
        return np.array([_parse_float(t, self.path, lineno) for t in rest])

    def done(self):
        if self.pos != len(self.lines):
            lineno, line = self.lines[self.pos]
            raise SchemaError(
                f"{self.path}:{lineno}: unknown trailing field "
                f"{line.split()[0]!r}")


def load_model(path: str) -> tuple[MlpParams, Standardizer]:
    lines = _read_lines(path)
    _, body = _header_fields(lines, path, MODEL_VERSION)
    reader = _ModelReader(path, lines, body)
    cfg_vals = {}
    for key in ("depth_l", "hidden_h", "shortcut_g", "batchnorm"):
        lineno, rest = reader.take(key)
        if len(rest) != 1:
            raise SchemaError(f"{path}:{lineno}: {key} needs one value")
        cfg_vals[key] = _parse_int(rest[0], path, lineno)
    try:
        cfg = MlpConfig(cfg_vals["depth_l"], cfg_vals["hidden_h"],
                        cfg_vals["shortcut_g"])
    except InvalidArgument as exc:
        raise SchemaError(f"{path}: invalid model config: {exc}") from exc

    lineno, rest = reader.take("kept_indices")
    kept = np.array([_parse_int(t, path, lineno) for t in rest])
    in_mean = reader.vector("in_mean", kept.size)
    in_std = reader.vector("in_std", kept.size)
    out_mean = float(reader.vector("out_mean", 1)[0])
    out_std = float(reader.vector("out_std", 1)[0])
    try:
        standardizer = Standardizer(kept, in_mean, in_std, out_mean, out_std)
    except InvalidArgument as exc:
        raise SchemaError(f"{path}: invalid standardizer: {exc}") from exc

    weights, biases = [], []
    for i in range(cfg.depth_l):
        lineno, rest = reader.take("layer")
        if len(rest) != 3:
            raise SchemaError(f"{path}:{lineno}: layer line needs 3 values")
        idx, rows, cols = (_parse_int(t, path, lineno) for t in rest)
        if idx != i:
            raise SchemaError(f"{path}:{lineno}: expected layer {i}, "
                              f"got {idx}")
        expect_rows = kept.size if i == 0 else cfg.hidden_h
        expect_cols = 1 if i == cfg.depth_l - 1 else cfg.hidden_h
        if (rows, cols) != (expect_rows, expect_cols):
            raise SchemaError(
                f"{path}:{lineno}: layer {i} shape ({rows}, {cols}) "
                f"inconsistent with config, expected "
                f"({expect_rows}, {expect_cols})")
        w = np.stack([reader.vector(f"w{i}", cols) for _ in range(rows)])
        weights.append(w)
        biases.append(reader.vector(f"b{i}", cols))

    bn = None
    if cfg_vals["batchnorm"]:
        bn = {"gamma": [], "beta": [], "mean": [], "var": []}
        for i in range(cfg.depth_l - 1):
            for key in ("gamma", "beta", "mean", "var"):
                bn[key].append(reader.vector(f"bn_{key}{i}", cfg.hidden_h))
    reader.done()
    if bn is None:
        return MlpParams(cfg, weights, biases), standardizer
    return MlpParams(cfg, weights, biases, bn["gamma"], bn["beta"],
                     bn["mean"], bn["var"]), standardizer


# ---------------------------------------------------------------------------
# candidate reports

def save_candidates(path: str, spec: CodeSpec, reports) -> None:
    """Search results, best first; validated FER is '-' when unavailable."""
    lines = ["# polarlab-candidates v1", f"# n: {spec.n_bits}",
             f"# k: {spec.k_info}",
             "# columns: mask predicted_fer validated_fer frames "
             "frame_errors restart best_iteration"]
    for rep in reports:
        mask_str = _mask_string(rep.mask)
        if rep.validated is None:
            val = "- - -"
        else:
            est = rep.validated
            val = f"{_fmt(est.fer)} {est.frames} {est.frame_errors}"
        lines.append(f"{mask_str} {_fmt(rep.predicted_fer)} {val} "
                     f"{rep.restart_index} {rep.best_iteration}")
    write_atomic(path, "\n".join(lines) + "\n")


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
    rows = [FER_CSV_HEADER + "\n"]
    rows += [f"{_fmt(ebn0)},{_fmt(est.fer)},{_fmt(est.ci_halfwidth)},"
             f"{est.frames}\n" for ebn0, est in points]
    write_atomic(csv_path, "".join(rows))
    curve = [(ebn0, est.fer) for ebn0, est in points]
    write_atomic(svg_path, render_fer_svg({label: curve}))
    return csv_path, svg_path


def load_fer_curve(path: str) -> list[tuple[float, float]]:
    """The (ebn0_db, fer) points of a CSV written by emit_fer_curve."""
    lines = _read_lines(path)
    if not lines or lines[0] != FER_CSV_HEADER:
        raise SchemaError(f"{path}:1: not a polarlab FER CSV")
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split(",")
        if len(cols) != 4:
            raise SchemaError(f"{path}:{lineno}: expected 4 columns")
        points.append((_parse_float(cols[0], path, lineno),
                       _parse_float(cols[1], path, lineno)))
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
                     f'text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
