"""The paper-scale recipe at desk size: it runs the CLI's stages, every
artifact gets a manifest, --skip-existing reuses finished stages whose
manifests match and re-runs the rest, and a failing stage's exit code ends
the recipe."""

import importlib.util
import os
import pathlib
import shutil

import numpy as np
import pytest

from polarlab import search
from polarlab.channel import MAX_WORKERS

RECIPE = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "paper_scale_recipe.py")
# artifact -> the .manifest the CLI writes beside it
ARTIFACTS = {
    "mask.txt": "mask.txt.manifest",
    "baseline.csv": "baseline.manifest",
    "baseline.svg": "baseline.manifest",
    "dataset.txt": "dataset.txt.manifest",
    "model.txt": "model.txt.manifest",
    "candidates.txt": "candidates.txt.manifest",
}


def small_recipe():
    spec = importlib.util.spec_from_file_location("paper_scale_recipe",
                                                  RECIPE)
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    recipe.N, recipe.K, recipe.LIST_SIZE = 64, 32, 2
    recipe.DATASET_SIZE, recipe.EPOCHS = 40, 5
    recipe.TARGET_ERRORS, recipe.MAX_FRAMES = 20, 2048
    recipe.MLP = dict(depth=3, hidden=32, gap=2)
    recipe.PGD = dict(iters=50, mu=0.1, restarts=4, topk=2)
    return recipe


def run(out_dir, *extra, **constants):
    """Run the desk-size recipe, first setting any of its constants."""
    recipe = small_recipe()
    for name, value in constants.items():
        setattr(recipe, name, value)
    return recipe.main(["--workers", "2", "--seed", "3",
                        "--out-dir", str(out_dir), *extra])


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("recipe")
    assert run(out) == 0
    return out


def test_every_stage_writes_its_artifact_and_manifest(finished_run):
    for artifact, manifest in ARTIFACTS.items():
        assert (finished_run / artifact).is_file(), artifact
        assert (finished_run / manifest).is_file(), manifest
    assert "command: dataset" in (
        finished_run / "dataset.txt.manifest").read_text()


def test_skip_existing_reuses_dataset_and_model(finished_run, tmp_path,
                                                capsys):
    out = tmp_path / "rerun"
    shutil.copytree(finished_run, out)
    before = {name: (out / name).read_bytes() for name in ARTIFACTS}
    (out / "candidates.txt").unlink()
    assert run(out, "--skip-existing") == 0
    printed = capsys.readouterr().out
    for name in ("mask.txt", "baseline.csv", "dataset.txt", "model.txt"):
        assert f"reusing {out / name}" in printed
    # the search re-runs on the reused files and reproduces its candidates
    assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before


def test_skip_existing_reuses_manifests_with_decoder_mode_lines(
        finished_run, tmp_path, capsys):
    # manifests of earlier CLI versions, whose simulate and dataset stages
    # had --metric and --node, record those settings too; reuse compares
    # only the flags the recipe passes
    out = tmp_path / "rerun"
    shutil.copytree(finished_run, out)
    for manifest in ("baseline.manifest", "dataset.txt.manifest"):
        command, *rest = (out / manifest).read_text().splitlines()
        rest += ["metric: approximate", "node: min_sum_f"]
        (out / manifest).write_text("\n".join([command, *sorted(rest)])
                                    + "\n")
    (out / "candidates.txt").unlink()
    assert run(out, "--skip-existing") == 0
    printed = capsys.readouterr().out
    for name in ("mask.txt", "baseline.csv", "dataset.txt", "model.txt"):
        assert f"reusing {out / name}" in printed


def test_skip_existing_reruns_a_stage_whose_settings_changed(
        finished_run, tmp_path, capsys):
    out = tmp_path / "rerun"
    shutil.copytree(finished_run, out)
    assert run(out, "--skip-existing", "--workers", "1", EPOCHS=6) == 0
    printed = capsys.readouterr().out
    for name in ("mask.txt", "baseline.csv", "dataset.txt"):
        assert f"reusing {out / name}" in printed  # --workers not compared
    assert f"reusing {out / 'model.txt'}" not in printed
    assert "epochs: 6" in (out / "model.txt.manifest").read_text()
    assert "epochs: 5" in (finished_run / "model.txt.manifest").read_text()


def test_skip_existing_reruns_every_stage_after_a_rerun(finished_run,
                                                        tmp_path, capsys):
    out = tmp_path / "rerun"
    shutil.copytree(finished_run, out)
    before = {name: (out / name).read_bytes() for name in ARTIFACTS}
    (out / "dataset.txt.manifest").unlink()
    assert run(out, "--skip-existing") == 0
    printed = capsys.readouterr().out
    assert f"reusing {out / 'baseline.csv'}" in printed
    # the dataset is rebuilt, so the model is retrained though its
    # manifest matches; both come out the same as before, but for the
    # dataset path the model records
    for name in ("dataset.txt", "model.txt"):
        assert f"reusing {out / name}" not in printed
    before["model.txt"] = before["model.txt"].replace(
        str(finished_run).encode(), str(out).encode())
    assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before


def test_failing_stage_ends_the_recipe_with_its_exit_code(
        finished_run, tmp_path, monkeypatch):
    def nan_gradient(config, params, x):
        return np.full(len(x), np.nan), np.full(x.shape, np.nan)

    out = tmp_path / "rerun"
    shutil.copytree(finished_run, out)
    (out / "candidates.txt").unlink()
    monkeypatch.setattr(search, "output_and_input_gradient", nan_gradient)
    assert run(out, "--skip-existing") == 4  # every PGD restart aborted
    assert not (out / "candidates.txt").exists()


def test_default_workers_stay_within_the_cap(tmp_path, monkeypatch):
    # on a host with more CPUs than MAX_WORKERS the default is the cap,
    # which every stage accepts; the stages are stubbed, so none starts
    recipe = small_recipe()
    commands, pilots = [], []
    monkeypatch.setattr(os, "cpu_count", lambda: 100_000)
    monkeypatch.setattr(recipe.cli, "main",
                        lambda argv: commands.append(argv) or 0)
    monkeypatch.setattr(recipe, "select_shuffle_range",
                        lambda *args, workers, **kwargs:
                        pilots.append(workers) or 8)
    assert recipe.main(["--out-dir", str(tmp_path)]) == 0
    threads = {argv[argv.index("--threads") + 1] for argv in commands
               if "--threads" in argv}
    assert threads == {str(MAX_WORKERS)} and pilots == [MAX_WORKERS]
