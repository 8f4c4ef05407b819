"""io_formats tests: byte-identical round trips and strict rejection of
malformed files."""

import hashlib
import os
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from polarlab import io_formats as iof
from polarlab.channel import FerEstimate
from polarlab.codec import CodeSpec, FrozenMask
from polarlab.construction import DatasetRecord, build_mask, ga_reliabilities
from polarlab.errors import InvalidArgument, SchemaError
from polarlab.search import CandidateReport
from polarlab.surrogate import MlpConfig, Standardizer, forward, init_params


def _records():
    rng = np.random.default_rng(0)
    recs = []
    for _ in range(40):
        bits = np.zeros(64, dtype=np.uint8)
        bits[rng.permutation(64)[:32]] = 1
        errors = int(rng.integers(1, 100))
        frames = int(rng.integers(errors, 10_000))
        recs.append(DatasetRecord(FrozenMask(bits),
                                  FerEstimate.from_counts(errors, frames,
                                                          2.5)))
    return recs


@pytest.fixture
def random_records():
    return _records()


# ---------------------------------------------------------------------------
# masks

def test_mask_round_trip(tmp_path):
    spec = CodeSpec(64, 32)
    mask = build_mask(spec, ga_reliabilities(spec, 2.0))
    path = str(tmp_path / "mask.txt")
    iof.save_mask(path, spec, mask, {"design_ebn0_db": 2.0})
    spec2, mask2 = iof.load_mask(path)
    assert spec2 == spec
    assert np.array_equal(mask2.bits, mask.bits)


def test_mask_string_convention(tmp_path):
    # "1000" with N=4, K=3 means frozen set {0}
    path = str(tmp_path / "m.txt")
    path_file = tmp_path / "m.txt"
    path_file.write_text("# polarlab-mask v1\n# n: 4\n# k: 3\n1000\n")
    spec, mask = iof.load_mask(path)
    assert spec == CodeSpec(4, 3)
    assert np.array_equal(mask.bits, [1, 0, 0, 0])


def test_mask_rejects_wrong_version_and_popcount(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# polarlab-mask v9\n# n: 4\n# k: 3\n1000\n")
    with pytest.raises(SchemaError):
        iof.load_mask(str(bad))
    bad.write_text("# polarlab-mask v1\n# n: 4\n# k: 3\n1100\n")
    with pytest.raises(SchemaError):
        iof.load_mask(str(bad))


@pytest.mark.parametrize("key", ["n", "k"])
def test_mask_bad_header_value_reported_at_its_line(tmp_path, key):
    path = tmp_path / "m.txt"
    header = {"n": "# n: 4", "k": "# k: 3"}
    header[key] = f"# {key}: x"
    # provenance first, so n and k sit on lines 3 and 4
    path.write_text("# polarlab-mask v1\n# method: ga\n"
                    f"{header['n']}\n{header['k']}\n1000\n")
    lineno = 3 if key == "n" else 4
    with pytest.raises(SchemaError, match=rf"m\.txt:{lineno}: not an integer"):
        iof.load_mask(str(path))


def test_mask_rejects_a_repeated_header_key(tmp_path):
    # the last of two n lines would load this as an (8,4) code
    path = tmp_path / "m.txt"
    path.write_text("# polarlab-mask v1\n# n: 16\n# k: 4\n# n: 8\n"
                    "11110000\n")
    with pytest.raises(SchemaError,
                       match=r"m\.txt:4: header field 'n' repeats line 2"):
        iof.load_mask(str(path))


# ---------------------------------------------------------------------------
# datasets

def _header():
    return iof.DatasetHeader(64, 32, "scl", 4, 2.5, 2.0, 8, 100, 42)


def test_dataset_round_trip_and_determinism(tmp_path, random_records):
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    iof.save_dataset(p1, _header(), random_records)
    header, loaded = iof.load_dataset(p1)
    assert header == _header()
    assert len(loaded) == len(random_records)
    for a, b in zip(random_records, loaded):
        assert np.array_equal(a.mask.bits, b.mask.bits)
        assert a.fer_estimate == b.fer_estimate
    iof.save_dataset(p2, header, loaded)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_dataset_rejects_bad_rows(tmp_path, random_records):
    path = str(tmp_path / "ds.txt")
    iof.save_dataset(path, _header(), random_records)
    lines = (tmp_path / "ds.txt").read_text().splitlines()
    n_header = sum(1 for ln in lines if ln.startswith("#"))

    # popcount violation, reported with its line number
    bad = lines[:]
    bad.insert(n_header, "1" * 64 + " 0.5 10 5")
    (tmp_path / "bad1.txt").write_text("\n".join(bad) + "\n")
    with pytest.raises(SchemaError, match=rf":{n_header + 1}:"):
        iof.load_dataset(str(tmp_path / "bad1.txt"))

    # fer inconsistent with frame_errors/frames
    bad = lines[:]
    tokens = bad[n_header].split()
    tokens[1] = "0.123456"
    bad[n_header] = " ".join(tokens)
    (tmp_path / "bad2.txt").write_text("\n".join(bad) + "\n")
    with pytest.raises(SchemaError, match="fer"):
        iof.load_dataset(str(tmp_path / "bad2.txt"))

    # wrong column count
    bad = lines[:]
    bad[n_header] = bad[n_header] + " 7"
    (tmp_path / "bad3.txt").write_text("\n".join(bad) + "\n")
    with pytest.raises(SchemaError, match="4 fields"):
        iof.load_dataset(str(tmp_path / "bad3.txt"))


def test_dataset_rejects_header_problems(tmp_path, random_records):
    path = str(tmp_path / "ds.txt")
    iof.save_dataset(path, _header(), random_records)
    text = (tmp_path / "ds.txt").read_text()
    (tmp_path / "v.txt").write_text(text.replace("dataset v1", "dataset v2"))
    with pytest.raises(SchemaError):
        iof.load_dataset(str(tmp_path / "v.txt"))
    (tmp_path / "m.txt").write_text(text.replace("# seed: 42\n", ""))
    with pytest.raises(SchemaError, match="missing"):
        iof.load_dataset(str(tmp_path / "m.txt"))
    (tmp_path / "u.txt").write_text(text.replace("# seed: 42",
                                                 "# seed: 42\n# extra: 1"))
    with pytest.raises(SchemaError, match="unknown"):
        iof.load_dataset(str(tmp_path / "u.txt"))


def test_dataset_bad_header_value_reported_at_its_line(tmp_path,
                                                       random_records):
    path = tmp_path / "ds.txt"
    iof.save_dataset(str(path), _header(), random_records)
    lines = path.read_text().splitlines()
    lines.remove("# seed: 42")
    lines.insert(1, "# seed: x")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=r"ds\.txt:2: not an integer: 'x'"):
        iof.load_dataset(str(path))


@pytest.mark.parametrize("line", ["# algorithm: bogus", "# list_size: 0"])
def test_dataset_rejects_invalid_decoder(tmp_path, random_records, line):
    path = tmp_path / "ds.txt"
    iof.save_dataset(str(path), _header(), random_records)
    key = line.split(":")[0]
    text = "\n".join(line if ln.startswith(key + ":") else ln
                     for ln in path.read_text().splitlines())
    path.write_text(text + "\n")
    with pytest.raises(SchemaError, match="invalid decoder"):
        iof.load_dataset(str(path))


@pytest.mark.parametrize("key,value", [("ebn0_db", "nan"),
                                       ("ebn0_db", "-inf"),
                                       ("design_ebn0_db", "inf")])
def test_dataset_rejects_non_finite_ebn0(tmp_path, random_records, key,
                                         value):
    path = tmp_path / "ds.txt"
    iof.save_dataset(str(path), _header(), random_records)
    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith(f"# {key}:"))
    lines[at] = f"# {key}: {value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError,
                       match=rf"ds\.txt:{at + 1}: invalid channel"):
        iof.load_dataset(str(path))


# ---------------------------------------------------------------------------
# models

# each id is the one the case had when this table also held BatchNorm
# cases, so a case keeps its name in test histories
@pytest.mark.parametrize("cfg,d_in", [
    pytest.param(MlpConfig(6, 320, 3), 36, id="cfg0-False-36"),  # large sweep
    pytest.param(MlpConfig(1, 5, 1), 7, id="cfg2-False-7"),
])
def test_model_round_trip_bit_exact(tmp_path, cfg, d_in):
    rng = np.random.default_rng(1)
    params = init_params(cfg, d_in, rng)
    kept = np.sort(rng.permutation(128)[:d_in])
    std = Standardizer(kept, rng.normal(0, 1, d_in),
                       np.abs(rng.normal(1, 0.1, d_in)) + 0.1, -3.0, 1.2)
    path = str(tmp_path / "model.txt")
    iof.save_model(path, params, std, {"epochs": 100})
    loaded, std2 = iof.load_model(path)
    x = rng.normal(0, 1, (100, d_in))
    assert np.array_equal(forward(cfg, params, x), forward(cfg, loaded, x))
    assert np.array_equal(std2.kept_indices, std.kept_indices)
    assert std2.out_mean == std.out_mean and std2.out_std == std.out_std
    iof.save_model(str(tmp_path / "again.txt"), loaded, std2, {"epochs": 100})
    assert (tmp_path / "model.txt").read_bytes() == \
        (tmp_path / "again.txt").read_bytes()


def test_model_rejects_truncation_and_unknown_fields(tmp_path):
    cfg = MlpConfig(2, 6, 1)
    rng = np.random.default_rng(2)
    params = init_params(cfg, 4, rng)
    std = Standardizer(np.arange(4), np.zeros(4), np.ones(4), 0.0, 1.0)
    path = str(tmp_path / "model.txt")
    iof.save_model(path, params, std)
    lines = (tmp_path / "model.txt").read_text().splitlines()
    (tmp_path / "trunc.txt").write_text("\n".join(lines[:len(lines) // 2])
                                        + "\n")
    with pytest.raises(SchemaError):
        iof.load_model(str(tmp_path / "trunc.txt"))
    (tmp_path / "extra.txt").write_text("\n".join(lines) + "\nmystery 1 2\n")
    with pytest.raises(SchemaError, match="mystery"):
        iof.load_model(str(tmp_path / "extra.txt"))
    (tmp_path / "v.txt").write_text("\n".join(lines).replace("model v1",
                                                             "model v7"))
    with pytest.raises(SchemaError):
        iof.load_model(str(tmp_path / "v.txt"))


def test_model_rejects_shape_mismatch(tmp_path):
    cfg = MlpConfig(2, 6, 1)
    params = init_params(cfg, 4, np.random.default_rng(3))
    std = Standardizer(np.arange(4), np.zeros(4), np.ones(4), 0.0, 1.0)
    path = str(tmp_path / "model.txt")
    iof.save_model(path, params, std)
    text = (tmp_path / "model.txt").read_text()
    (tmp_path / "bad.txt").write_text(text.replace("layer 0 4 6",
                                                   "layer 0 4 5"))
    with pytest.raises(SchemaError, match="shape"):
        iof.load_model(str(tmp_path / "bad.txt"))


@pytest.mark.parametrize("kept", ["-9 5", "3 99999999999999999999"])
def test_model_rejects_out_of_range_kept_indices(tmp_path, kept):
    # a negative index would count mask columns from the end, and one past
    # int64 does not fit the standardizer's index array
    params = init_params(MlpConfig(1, 3, 1), 2, np.random.default_rng(4))
    std = Standardizer(np.array([3, 5]), np.zeros(2), np.ones(2), 0.0, 1.0)
    path = tmp_path / "model.txt"
    iof.save_model(str(path), params, std)
    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("kept_indices"))
    lines[at] = f"kept_indices {kept}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError,
                       match=rf"model\.txt:{at + 1}-\d+: invalid standardizer"):
        iof.load_model(str(path))


@pytest.mark.parametrize("row,value", [
    ("in_mean", "nan"), ("out_std", "nan"), ("w0", "inf"), ("b1", "-inf")])
def test_model_rejects_non_finite_values_at_their_line(tmp_path, row, value):
    params = init_params(MlpConfig(2, 3, 1), 2, np.random.default_rng(7))
    std = Standardizer(np.array([0, 1]), np.zeros(2), np.ones(2), 0.0, 1.0)
    path = tmp_path / "model.txt"
    iof.save_model(str(path), params, std)
    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.split()[0] == row)
    name, first, *rest = lines[at].split()
    lines[at] = " ".join([name, value, *rest])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=rf"model\.txt:{at + 1}: '{row}' "
                                          r"values must be finite"):
        iof.load_model(str(path))


@pytest.mark.parametrize("field,value", [
    ("in_mean", np.array([0.0, np.nan])), ("in_std", np.array([1.0, np.inf])),
    ("out_mean", np.inf), ("out_std", np.nan)],
    ids=["in_mean", "in_std", "out_mean", "out_std"])
def test_standardizer_rejects_non_finite_statistics(field, value):
    stats = dict(in_mean=np.zeros(2), in_std=np.ones(2), out_mean=0.0,
                 out_std=1.0)
    with pytest.raises(InvalidArgument, match="must be finite"):
        Standardizer(np.array([0, 1]), **(stats | {field: value}))


def _corruptions(lines):
    """Every single-line corruption of a model file's rows: a row dropped,
    duplicated or swapped with the next; one token added or removed; the
    first value replaced by x, 7 or 1.5; a row renamed; a trailing row."""
    rows = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    for i, j in zip(rows, rows[1:] + [None]):
        name, *vals = lines[i].split()
        edits = [[], [lines[i]] * 2, [lines[i] + " 0.25"],
                 [" ".join([name, *vals[:-1]])], [" ".join(["bogus", *vals])]]
        edits += [[" ".join([name, token, *vals[1:]])]
                  for token in ("x", "7", "1.5")]
        for edit in edits:
            yield lines[:i] + edit + lines[i + 1:]
        if j is not None:
            swapped = list(lines)
            swapped[i], swapped[j] = lines[j], lines[i]
            yield swapped
    yield lines + ["mystery 1"]


def test_model_loader_accepts_exactly_what_the_writer_writes(tmp_path):
    """Each single-line corruption of a model with a shortcut is rejected
    at a line, or loads to a model that writes back the same rows."""
    cfg = MlpConfig(3, 4, 1)
    assert cfg.has_shortcut_into(2)
    rng = np.random.default_rng(5)
    params = init_params(cfg, 6, rng)
    std = Standardizer(np.array([1, 3, 4, 6, 8, 9]), rng.normal(0, 1, 6),
                       np.full(6, 0.5), -3.0, 1.2)
    path, again = tmp_path / "model.txt", tmp_path / "again.txt"
    iof.save_model(str(path), params, std, {"epochs": 3})

    def body(lines):
        return [ln for ln in lines if not ln.startswith("#")]

    outcomes = []
    for bad in _corruptions(path.read_text().splitlines()):
        path.write_text("\n".join(bad) + "\n")
        try:
            loaded, std2 = iof.load_model(str(path))
        except SchemaError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+", str(exc)), exc
            outcomes.append("rejected")
            continue
        iof.save_model(str(again), loaded, std2)
        assert body(again.read_text().splitlines()) == body(bad)
        outcomes.append("accepted")
    assert len(outcomes) > 250 and "accepted" in outcomes \
        and "rejected" in outcomes


def test_model_with_batchnorm_is_rejected_at_its_line(tmp_path):
    params = init_params(MlpConfig(2, 3, 1), 2, np.random.default_rng(6))
    std = Standardizer(np.array([0, 1]), np.zeros(2), np.ones(2), 0.0, 1.0)
    path = tmp_path / "model.txt"
    iof.save_model(str(path), params, std)
    lines = path.read_text().splitlines()
    at = lines.index("batchnorm 0")
    lines[at] = "batchnorm 1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=rf"model\.txt:{at + 1}: batchnorm "
                                          r"must be 0"):
        iof.load_model(str(path))


# ---------------------------------------------------------------------------
# FER curves

def _points():
    return [(x, FerEstimate.from_counts(max(1, int(1000 * 10 ** (-x / 2))),
                                        100_000, x))
            for x in np.arange(0.8, 6.01, 0.4)]


def test_fer_curve_csv_round_trip(tmp_path):
    pts = _points()
    csv_path, svg_path = iof.emit_fer_curve(pts, str(tmp_path / "curve"))
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "ebn0_db,fer,ci_halfwidth,frames"
    assert len(lines) == len(pts) + 1
    for (ebn0, est), line in zip(pts, lines[1:]):
        cols = line.split(",")
        assert float(cols[0]) == ebn0
        assert float(cols[1]) == est.fer
        assert float(cols[2]) == est.ci_halfwidth
        assert int(cols[3]) == est.frames


def test_fer_curve_load_round_trip_and_rejects_bad_rows(tmp_path):
    pts = _points()
    csv_path, _ = iof.emit_fer_curve(pts, str(tmp_path / "curve"))
    assert iof.load_fer_curve(csv_path) == [(e, est.fer) for e, est in pts]
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    for bad_row in ("1.0,abc,0.1,100", "1.0,0.5,0.1", "1.0,0.01,abc,xyz",
                    "1.0,0.5,0.1,xyz", "1.0,0.5,0.1,100.0"):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:3] + [bad_row]) + "\n")
        with pytest.raises(SchemaError, match=r"bad\.csv:4"):
            iof.load_fer_curve(str(bad))
    # a non-finite Eb/N0, and a FER outside [0, 1] or NaN
    for bad_row, what in (("inf,0.5,0.1,100", "Eb/N0"),
                          ("nan,0.5,0.1,100", "Eb/N0"),
                          ("1.0,inf,0.1,100", "FER"),
                          ("1.0,1e400,0.1,100", "FER"),
                          ("1.0,1.5,0.1,100", "FER"),
                          ("1.0,-1e-3,0.1,100", "FER"),
                          ("1.0,nan,0.1,100", "FER"),
                          ("1.0,0.5,-0.1,100", "ci_halfwidth"),
                          ("1.0,0.5,inf,100", "ci_halfwidth"),
                          ("1.0,0.5,nan,100", "ci_halfwidth"),
                          ("1.0,0.5,0.1,0", "frames"),
                          ("1.0,0.5,0.1,-5", "frames")):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:3] + [bad_row]) + "\n")
        with pytest.raises(SchemaError, match=rf"bad\.csv:4: {what}"):
            iof.load_fer_curve(str(bad))
    (tmp_path / "other.csv").write_text("x,y\n1,2\n")
    with pytest.raises(SchemaError, match="not a polarlab FER CSV"):
        iof.load_fer_curve(str(tmp_path / "other.csv"))


def test_fer_curve_svg_content(tmp_path):
    _, svg_path = iof.emit_fer_curve(_points(), str(tmp_path / "c"), "SCL-4")
    svg = (tmp_path / "c.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg and "SCL-4" in svg
    assert "1e-" in svg  # logarithmic FER tick labels


def test_fer_curve_single_point_renders_marker_only():
    svg = iof.render_fer_svg({"x": [(2.0, 1e-3)]})
    assert "circle" in svg and "polyline" not in svg


def test_fer_curve_empty_rejected(tmp_path):
    with pytest.raises(InvalidArgument):
        iof.emit_fer_curve([], str(tmp_path / "never"))
    with pytest.raises(InvalidArgument):
        iof.render_fer_svg({"x": [(1.0, 0.0)]})


def test_multi_curve_svg_has_one_polyline_per_curve():
    curves = {
        "a": [(1.0, 1e-2), (2.0, 1e-3)],
        "b": [(1.0, 2e-2), (2.0, 2e-3)],
    }
    svg = iof.render_fer_svg(curves)
    assert svg.count("<polyline") == 2
    assert "a</text>" in svg and "b</text>" in svg


def test_svg_labels_are_escaped():
    labels = ["x<y=a&b.csv", "a&b.csv", "</text><b>", '"q" > \'p\'']
    svg = iof.render_fer_svg({label: [(1.0, 1e-2), (2.0, 1e-3)]
                              for label in labels})
    root = ET.fromstring(svg)  # raises on a malformed document
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[-len(labels):] == labels


# ---------------------------------------------------------------------------
# write safety

def _save_small_model(path):
    params = init_params(MlpConfig(2, 3, 1), 4, np.random.default_rng(4))
    std = Standardizer(np.arange(4), np.zeros(4), np.ones(4), 0.0, 1.0)
    iof.save_model(path, params, std)


_WRITERS = {
    "mask": (lambda p: iof.save_mask(
        p, CodeSpec(4, 3), FrozenMask(np.array([1, 0, 0, 0], np.uint8))),
        "x.txt"),
    "dataset": (lambda p: iof.save_dataset(p, _header(), []), "x.txt"),
    "model": (_save_small_model, "x.txt"),
    "candidates": (lambda p: iof.save_candidates(p, CodeSpec(4, 3), []),
                   "x.txt"),
    "fer_curve_csv": (lambda p: iof.emit_fer_curve(_points(), p[:-4]),
                      "x.csv"),
    "fer_curve_svg": (lambda p: iof.emit_fer_curve(_points(), p[:-4]),
                      "x.svg"),
}


@pytest.mark.parametrize("writer", list(_WRITERS))
def test_failed_save_keeps_previous_file(tmp_path, monkeypatch, writer):
    save, name = _WRITERS[writer]
    target = tmp_path / name
    target.write_text("previous\n")
    real_replace = os.replace

    def replace(src, dst):
        if dst == str(target):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        save(str(target))
    assert target.read_text() == "previous\n"
    assert not list(tmp_path.glob("*.tmp"))
    monkeypatch.undo()
    save(str(target))
    assert target.read_text() != "previous\n"
    assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# writer digests: the exact bytes each writer produces from fixed inputs

def _fixed_mask(n=64, k=32, seed=5):
    bits = np.zeros(n, dtype=np.uint8)
    bits[np.random.default_rng(seed).permutation(n)[:n - k]] = 1
    return FrozenMask(bits)


def _fixed_model(path):
    rng = np.random.default_rng(1)
    params = init_params(MlpConfig(3, 16, 2), 10, rng)
    std = Standardizer(np.sort(rng.permutation(64)[:10]),
                       rng.normal(0, 1, 10),
                       np.abs(rng.normal(1, 0.1, 10)) + 0.1, -3.0, 1.2)
    iof.save_model(path, params, std,
                   {"epochs": 100, "learning_rate": 0.001, "batchnorm":
                    False, "dataset": "runs/desk/dataset.txt"})


def _fixed_candidates(path):
    reports = [
        CandidateReport(_fixed_mask(seed=6), 1.2345678901234567e-3,
                        FerEstimate.from_counts(37, 41_000, 2.5), 3, 17),
        CandidateReport(_fixed_mask(seed=7), 2.5e-3, None, 0, 4999),
    ]
    iof.save_candidates(path, CodeSpec(64, 32), reports)


_DIGEST_WRITERS = {
    "mask": (lambda p: iof.save_mask(
        p, CodeSpec(64, 32), _fixed_mask(),
        {"design_ebn0_db": 3.2, "method": "ga", "ratio": 0.1 + 0.2}),
        "x.txt"),
    "dataset": (lambda p: iof.save_dataset(
        p, iof.DatasetHeader(64, 32, "scl", 4, 3.2, 0.1 + 0.2, 7, 620, 5),
        _records()), "x.txt"),
    "model": (_fixed_model, "x.txt"),
    "candidates": (_fixed_candidates, "x.txt"),
    "fer_curve_csv": (lambda p: iof.emit_fer_curve(_points(), p[:-4],
                                                   "(64,32) SCL-4"), "x.csv"),
    "fer_curve_svg": (lambda p: iof.emit_fer_curve(_points(), p[:-4],
                                                   "(64,32) SCL-4"), "x.svg"),
}

_WRITER_SHA256 = {
    "mask":
        "6f133f95b6b1b023a0675b15c3ab0790990995320c7bf3ddaa865062e963f528",
    "dataset":
        "15410d2614b6fe48992993e1c616921d49a3dd62da7a8fec53b40f3695fcb77d",
    "model":
        "cbf09a258be297c370f33863de75ca12c78f36c0af255e6e99680c88e0a88ebc",
    "candidates":
        "9be133da9877ebe96300dcd9bc75bb023b6cb5d53269ae8e2dba407ed48c2696",
    "fer_curve_csv":
        "1209e0d32c44d1251bd1c95c795312231bb5243fae3386bd98fb49ebba1145f6",
    "fer_curve_svg":
        "2e43eb0dd4c3003ba4fa53459804fe68e068483f359a73ed64c616e07966c35c",
}


@pytest.mark.parametrize("writer", list(_DIGEST_WRITERS))
def test_writer_bytes_are_pinned(tmp_path, writer):
    """Every format is pinned to the byte: a refactor of a writer must
    reproduce these digests exactly."""
    save, name = _DIGEST_WRITERS[writer]
    target = tmp_path / name
    save(str(target))
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == _WRITER_SHA256[writer]
