"""CLI tests: subcommand behavior, exit codes, manifests, and configuration
precedence. Commands run in-process through main()."""

import os

import numpy as np
import pytest

from polarlab import io_formats, search
from polarlab.cli import main
from polarlab.codec import CodeSpec, DecoderConfig
from polarlab.construction import build_mask, ga_reliabilities


def run(*argv):
    return main(list(argv))


@pytest.fixture
def mask_file(tmp_path):
    path = str(tmp_path / "mask.txt")
    assert run("construct", "--n", "32", "--k", "16", "--ebn0", "2.0",
               "--out", path) == 0
    return path


@pytest.fixture
def dataset_file(tmp_path):
    path = str(tmp_path / "ds.txt")
    assert run("dataset", "--n", "32", "--k", "16", "--ebn0", "3.0",
               "--design-ebn0", "3.0", "--range-r", "4", "--count-d", "40",
               "--list-size", "2", "--target-errors", "20",
               "--max-frames", "20000", "--seed", "3", "--out", path) == 0
    return path


def test_construct_matches_library(tmp_path, mask_file):
    spec, mask = io_formats.load_mask(mask_file)
    expected = build_mask(spec, ga_reliabilities(spec, 2.0))
    assert np.array_equal(mask.bits, expected.bits)
    assert os.path.exists(mask_file + ".manifest")


def test_construct_n4_k3_single_frozen_bit(tmp_path):
    path = str(tmp_path / "m4.txt")
    assert run("construct", "--n", "4", "--k", "3", "--ebn0", "2.0",
               "--out", path) == 0
    _, mask = io_formats.load_mask(path)
    assert np.array_equal(mask.bits, [1, 0, 0, 0])


def test_construct_usage_errors(tmp_path):
    out = str(tmp_path / "x.txt")
    assert run("construct", "--n", "48", "--k", "24", "--out", out) == 2
    assert run("construct", "--k", "24", "--out", out) == 2


def test_simulate_writes_curve_and_manifest(tmp_path, mask_file):
    prefix = str(tmp_path / "fer")
    assert run("simulate", "--mask", mask_file, "--ebn0", "2.0,3.0",
               "--list-size", "2", "--target-errors", "20",
               "--max-frames", "20000", "--out", prefix) == 0
    lines = (tmp_path / "fer.csv").read_text().splitlines()
    assert lines[0] == "ebn0_db,fer,ci_halfwidth,frames"
    assert len(lines) == 3
    assert (tmp_path / "fer.svg").read_text().startswith("<svg")
    assert "command: simulate" in (tmp_path / "fer.manifest").read_text()


def test_simulate_thread_count_does_not_change_output(tmp_path, mask_file):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    common = ("simulate", "--mask", mask_file, "--ebn0", "2.5",
              "--list-size", "2", "--seed", "7", "--target-errors", "30",
              "--max-frames", "20000")
    assert run(*common, "--threads", "1", "--out", a) == 0
    assert run(*common, "--threads", "8", "--out", b) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_simulate_sweep_parsing(tmp_path, mask_file, capsys):
    prefix = str(tmp_path / "sweep")
    assert run("simulate", "--mask", mask_file, "--ebn0", "1.0:2.0:0.5",
               "--list-size", "1", "--target-errors", "5",
               "--max-frames", "5000", "--out", prefix) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1.0, 1.5, 2.0]
    for bad in ("abc", "1:2:x", "1,x", "nan:2:0.5", "1:inf:0.5", "1,nan",
                "1:2", "2:1:0.5", "0:1e308:1e-300"):
        out = tmp_path / "bad"
        assert run("simulate", "--mask", mask_file, f"--ebn0={bad}",
                   "--out", str(out)) == 2, bad
        assert "--ebn0" in capsys.readouterr().err, bad
        assert not list(tmp_path.glob("bad*")), bad


@pytest.mark.parametrize("ebn0", ["nan", "inf", "-inf", "-4000", "4000"])
def test_unusable_ebn0_is_a_usage_error(tmp_path, mask_file, ebn0):
    # none of these gives a finite, positive noise variance
    code = ["--n", "16", "--k", "8"]
    shuffle = [*code, "--range-r", "2", "--count-d", "3"]
    inputs = {
        "construct": [*code, f"--ebn0={ebn0}"],
        "simulate": ["--mask", mask_file, f"--ebn0={ebn0}"],
        "dataset": [*shuffle, f"--ebn0={ebn0}"],
        "dataset-design": [*shuffle, f"--design-ebn0={ebn0}"],
    }
    for name, args in inputs.items():
        out = tmp_path / f"{name}-out"
        assert run(name.split("-")[0], *args, "--out", str(out)) == 2, name
        assert not list(tmp_path.glob(f"{name}-out*")), name


def test_simulate_schema_error_exit_code(tmp_path, mask_file):
    bad = tmp_path / "bad.txt"
    bad.write_text((tmp_path / "mask.txt").read_text()
                   .replace("mask v1", "mask v9"))
    assert run("simulate", "--mask", str(bad),
               "--out", str(tmp_path / "x")) == 3
    assert run("simulate", "--mask", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "x")) == 3


def test_dataset_train_eval_search_pipeline(tmp_path, dataset_file):
    header, records = io_formats.load_dataset(dataset_file)
    assert header.n == 32 and len(records) >= 10
    model = str(tmp_path / "model.txt")
    assert run("train", "--dataset", dataset_file, "--epochs", "40",
               "--hidden", "32", "--depth", "2", "--gap", "1",
               "--seed", "1", "--out", model) == 0
    assert run("eval", "--model", model, "--dataset", dataset_file) == 0
    cand = str(tmp_path / "cand.txt")
    assert run("search", "--model", model, "--dataset", dataset_file,
               "--iters", "40", "--restarts", "4", "--topk", "2",
               "--target-errors", "10", "--max-frames", "20000",
               "--seed", "2", "--out", cand) == 0
    lines = (tmp_path / "cand.txt").read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body
    mask_str = body[0].split()[0]
    assert len(mask_str) == 32 and mask_str.count("1") == 16


def test_plot_combines_csvs(tmp_path, mask_file):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix, seed in ((a, "1"), (b, "2")):
        assert run("simulate", "--mask", mask_file, "--ebn0", "2.0",
                   "--list-size", "1", "--seed", seed, "--target-errors",
                   "5", "--max-frames", "5000", "--out", prefix) == 0
    out = str(tmp_path / "combined.svg")
    assert run("plot", f"one={a}.csv", f"two={b}.csv", "--out", out) == 0
    svg = (tmp_path / "combined.svg").read_text()
    assert "one</text>" in svg and "two</text>" in svg
    assert run("plot", str(tmp_path / "missing.csv"), "--out", out) == 3


def test_plot_rejects_a_repeated_label(tmp_path, mask_file, capsys):
    for run_dir in ("r1", "r2"):
        (tmp_path / run_dir).mkdir()
        assert run("simulate", "--mask", mask_file, "--ebn0", "2.0",
                   "--list-size", "1", "--target-errors", "5",
                   "--max-frames", "5000",
                   "--out", str(tmp_path / run_dir / "fer")) == 0
    r1, r2 = (str(tmp_path / d / "fer.csv") for d in ("r1", "r2"))
    out = tmp_path / "dup.svg"
    capsys.readouterr()
    assert run("plot", r1, r2, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "'fer.csv'" in err and "label=path" in err
    assert not out.exists()
    assert run("plot", f"r1={r1}", f"r2={r2}", "--out", str(out)) == 0
    assert run("plot", f"x={r1}", f"x={r2}", "--out", str(out)) == 2


@pytest.mark.parametrize("suffix", ["", ".manifest"])
def test_plot_failed_write_keeps_previous_file(tmp_path, mask_file,
                                               monkeypatch, suffix):
    """The SVG and its manifest are replaced atomically: when the rename
    fails the previous file stays and no temporary is left behind."""
    prefix = str(tmp_path / "a")
    assert run("simulate", "--mask", mask_file, "--ebn0", "2.0",
               "--list-size", "1", "--target-errors", "5",
               "--max-frames", "5000", "--out", prefix) == 0
    out = str(tmp_path / "combined.svg")
    target = tmp_path / ("combined.svg" + suffix)
    target.write_text("previous\n")
    real_replace = os.replace

    def replace(src, dst):
        if dst == str(target):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        run("plot", f"{prefix}.csv", "--out", out)
    assert target.read_text() == "previous\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_config_file_and_flag_precedence(tmp_path, mask_file):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("ebn0 = 2.5\nseed = 7\nlist-size = 2\n"
                   "target-errors = 20\nmax-frames = 20000\n")
    base = str(tmp_path / "base")
    assert run("simulate", "--mask", mask_file, "--config", str(cfg),
               "--out", base) == 0
    flag = str(tmp_path / "flag")
    assert run("simulate", "--mask", mask_file, "--config", str(cfg),
               "--seed", "9", "--out", flag) == 0
    assert (tmp_path / "base.csv").read_bytes() != \
        (tmp_path / "flag.csv").read_bytes()
    # same resolved configuration via flags only -> identical output
    again = str(tmp_path / "again")
    assert run("simulate", "--mask", mask_file, "--ebn0", "2.5", "--seed",
               "7", "--list-size", "2", "--target-errors", "20",
               "--max-frames", "20000", "--out", again) == 0
    assert (tmp_path / "base.csv").read_bytes() == \
        (tmp_path / "again.csv").read_bytes()


def test_config_file_rejects_unknown_keys(tmp_path, mask_file):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run("simulate", "--mask", mask_file, "--config", str(cfg),
               "--out", str(tmp_path / "x")) == 2


def test_train_has_no_batchnorm_option(tmp_path, dataset_file, capsys):
    out = tmp_path / "model.txt"
    with pytest.raises(SystemExit) as exc:
        run("train", "--dataset", dataset_file, "--batchnorm",
            "--out", str(out))
    assert exc.value.code == 2
    assert "--batchnorm" in capsys.readouterr().err
    cfg = tmp_path / "train.cfg"
    cfg.write_text("batchnorm = 1\n")
    assert run("train", "--dataset", dataset_file, "--config", str(cfg),
               "--out", str(out)) == 2
    assert "unknown keys: ['batchnorm']" in capsys.readouterr().err
    assert not list(tmp_path.glob("model*"))


@pytest.mark.parametrize("flag,value", [
    ("--batch-size", "0"), ("--batch-size", "-4"), ("--lr", "-0.01"),
])
def test_train_rejects_bad_batch_size_and_learning_rate(
        tmp_path, dataset_file, capsys, flag, value):
    out = tmp_path / "model.txt"
    assert run("train", "--dataset", dataset_file, "--epochs", "2",
               "--hidden", "8", "--depth", "2", "--gap", "1", flag, value,
               "--out", str(out)) == 2
    assert "must be" in capsys.readouterr().err
    assert not list(tmp_path.glob("model*"))


def test_search_rejects_a_non_finite_step(tmp_path, dataset_file, capsys):
    model = str(tmp_path / "model.txt")
    assert run("train", "--dataset", dataset_file, "--epochs", "2",
               "--hidden", "8", "--depth", "2", "--gap", "1",
               "--out", model) == 0
    out = tmp_path / "cand.txt"
    for mu in ("nan", "inf"):
        assert run("search", "--model", model, "--dataset", dataset_file,
                   "--iters", "2", "--restarts", "1", "--mu", mu,
                   "--out", str(out)) == 2
        assert "step_mu must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("cand*"))


def test_environment_seed_override(tmp_path, mask_file, monkeypatch):
    env = str(tmp_path / "env")
    monkeypatch.setenv("POLARLAB_SEED", "7")
    assert run("simulate", "--mask", mask_file, "--ebn0", "2.5",
               "--list-size", "2", "--target-errors", "20",
               "--max-frames", "20000", "--out", env) == 0
    monkeypatch.delenv("POLARLAB_SEED")
    flag = str(tmp_path / "flag")
    assert run("simulate", "--mask", mask_file, "--ebn0", "2.5",
               "--list-size", "2", "--seed", "7", "--target-errors", "20",
               "--max-frames", "20000", "--out", flag) == 0
    assert (tmp_path / "env.csv").read_bytes() == \
        (tmp_path / "flag.csv").read_bytes()


@pytest.mark.parametrize("variable", ["POLARLAB_SEED", "POLARLAB_THREADS"])
def test_non_integer_environment_value_is_a_usage_error(
        tmp_path, mask_file, monkeypatch, capsys, variable):
    monkeypatch.setenv(variable, "abc")
    assert run("simulate", "--mask", mask_file, "--ebn0", "2.0",
               "--out", str(tmp_path / "env")) == 2
    assert variable in capsys.readouterr().err
    assert not list(tmp_path.glob("env*"))


def test_negative_seed_is_a_usage_error(tmp_path, mask_file, dataset_file):
    model = str(tmp_path / "model.txt")
    assert run("train", "--dataset", dataset_file, "--epochs", "2",
               "--hidden", "8", "--depth", "2", "--gap", "1",
               "--out", model) == 0
    inputs = {
        "simulate": ["--mask", mask_file, "--ebn0", "2.0"],
        "dataset": ["--n", "16", "--k", "8", "--range-r", "2",
                    "--count-d", "3"],
        "train": ["--dataset", dataset_file],
        "search": ["--model", model, "--dataset", dataset_file],
    }
    for command, args in inputs.items():
        out = tmp_path / f"{command}-out"
        assert run(command, *args, "--seed", "-1", "--out", str(out)) == 2, \
            command
        assert not list(tmp_path.glob(f"{command}-out*")), command


def test_seed_beyond_64_bits_is_a_usage_error(tmp_path, mask_file):
    # 5 + 2**64 would key the same Monte Carlo streams as --seed 5
    out = tmp_path / "fer"
    assert run("simulate", "--mask", mask_file, "--ebn0", "2.0",
               "--seed", str(5 + 2**64), "--out", str(out)) == 2
    assert not list(tmp_path.glob("fer*"))


def test_manifest_echoes_resolved_config(tmp_path, mask_file):
    prefix = str(tmp_path / "m")
    assert run("simulate", "--mask", mask_file, "--ebn0", "2.0",
               "--list-size", "2", "--seed", "5", "--target-errors", "5",
               "--max-frames", "5000", "--out", prefix) == 0
    manifest = (tmp_path / "m.manifest").read_text()
    assert "seed: 5" in manifest
    assert "list_size: 2" in manifest
    assert "threads: 1" in manifest  # defaults are echoed too


def test_dataset_with_every_mask_skipped_writes_nothing(tmp_path,
                                                        monkeypatch, capsys):
    from polarlab import construction
    from polarlab.errors import NumericError

    def fail(*args, **kwargs):
        raise NumericError("no frames simulated")

    monkeypatch.setattr(construction, "estimate_fer", fail)
    out = tmp_path / "ds.txt"
    assert run("dataset", "--n", "16", "--k", "8", "--range-r", "2",
               "--count-d", "3", "--out", str(out)) == 4
    assert "error: every mask failed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_search_with_every_restart_aborted_writes_nothing(
        tmp_path, dataset_file, monkeypatch, capsys):
    from polarlab import search

    def nan_gradient(config, params, x):
        return np.full(len(x), np.nan), np.full(x.shape, np.nan)

    model = str(tmp_path / "model.txt")
    assert run("train", "--dataset", dataset_file, "--epochs", "2",
               "--hidden", "8", "--depth", "2", "--gap", "1",
               "--out", model) == 0
    monkeypatch.setattr(search, "output_and_input_gradient", nan_gradient)
    assert run("search", "--model", model, "--dataset", dataset_file,
               "--iters", "5", "--restarts", "3",
               "--out", str(tmp_path / "cand.txt")) == 4
    assert "error: every PGD restart aborted" in capsys.readouterr().err
    assert not (tmp_path / "cand.txt").exists()
    assert not (tmp_path / "cand.txt.manifest").exists()


def test_search_rejects_dataset_with_invalid_decoder(tmp_path, dataset_file):
    model = str(tmp_path / "model.txt")
    assert run("train", "--dataset", dataset_file, "--epochs", "2",
               "--hidden", "8", "--depth", "2", "--gap", "1",
               "--out", model) == 0
    text = (tmp_path / "ds.txt").read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("# list_size: 2", "# list_size: 0"))
    assert run("search", "--model", model, "--dataset", str(bad),
               "--iters", "2", "--restarts", "1",
               "--out", str(tmp_path / "cand.txt")) == 3
    assert not (tmp_path / "cand.txt").exists()


def test_ebn0_past_the_decoder_width_is_a_usage_error(tmp_path, mask_file,
                                                      capsys):
    # at rate 1/2 a noiseless symbol's LLR passes float32's largest finite
    # value above about 382 dB, and float64's only above about 3080 dB
    out = tmp_path / "fer"
    assert run("simulate", "--mask", mask_file, "--ebn0", "400",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "Eb/N0 400.0 dB" in err and "float32 decoder" in err
    assert not list(tmp_path.glob("fer*"))


def test_decoder_mode_options_are_gone(tmp_path, mask_file, capsys):
    # the CLI builds every decoder from its list size alone
    out = str(tmp_path / "fer")
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--mask", mask_file, "--metric", "exact",
            "--out", out)
    assert exc.value.code == 2
    assert "--metric" in capsys.readouterr().err
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("node = exact_f\n")
    assert run("simulate", "--mask", mask_file, "--config", str(cfg),
               "--out", out) == 2
    assert "unknown keys: ['node']" in capsys.readouterr().err
    assert not list(tmp_path.glob("fer*"))


@pytest.mark.parametrize("list_size", ["2", "1"])
def test_search_validates_with_the_datasets_decoder(tmp_path, dataset_file,
                                                    monkeypatch, list_size):
    # an SCL-1 dataset is validated with SCL-1, not with the SC that the
    # CLI would build for list size 1
    model = str(tmp_path / "model.txt")
    assert run("train", "--dataset", dataset_file, "--epochs", "2",
               "--hidden", "8", "--depth", "2", "--gap", "1",
               "--out", model) == 0
    dataset = tmp_path / "scl.txt"
    dataset.write_text((tmp_path / "ds.txt").read_text().replace(
        "# list_size: 2", f"# list_size: {list_size}"))
    header, _ = io_formats.load_dataset(str(dataset))
    decoders = []
    estimate_fer = search.estimate_fer

    def spy(spec, mask, decoder, *args):
        decoders.append(decoder)
        return estimate_fer(spec, mask, decoder, *args)

    monkeypatch.setattr(search, "estimate_fer", spy)
    assert run("search", "--model", model, "--dataset", str(dataset),
               "--iters", "5", "--restarts", "2", "--topk", "2",
               "--target-errors", "5", "--max-frames", "2000",
               "--out", str(tmp_path / "cand.txt")) == 0
    assert decoders == [DecoderConfig("scl", int(list_size))] * 2
    assert decoders[0] == DecoderConfig(header.algorithm, header.list_size)


def test_model_inputs_past_the_dataset_n_are_a_usage_error(
        tmp_path, dataset_file, capsys):
    model = tmp_path / "model.txt"
    assert run("train", "--dataset", dataset_file, "--epochs", "2",
               "--hidden", "8", "--depth", "2", "--gap", "1",
               "--out", str(model)) == 0
    lines = model.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("kept_indices"))
    lines[at] = " ".join(lines[at].split()[:-1] + ["40"])  # N is 32
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("eval", "--model", str(model), "--dataset", dataset_file) == 2
    assert "index 40 is out of range for masks of N = 32" in \
        capsys.readouterr().err
    out = tmp_path / "cand.txt"
    assert run("search", "--model", str(model), "--dataset", dataset_file,
               "--iters", "2", "--restarts", "1", "--out", str(out)) == 2
    assert "index 40 is out of range for masks of N = 32" in \
        capsys.readouterr().err
    assert not list(tmp_path.glob("cand*"))
