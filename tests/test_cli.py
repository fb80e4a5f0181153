"""Smoke tests for the ``python -m repro`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import golden

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)
# Hosted CI compares the golden metrics within rtol (see test_golden_parity).
GOLDEN_RELAXED = os.environ.get("REPRO_GOLDEN_RELAXED", "") not in ("", "0")


def run_python(*args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def run_cli(*args, timeout=120):
    return run_python("-m", "repro", *args, timeout=timeout)


# Run in a fresh interpreter, then print which scipy modules the run left in
# ``sys.modules``: ``import repro`` must load none (scipy.sparse is imported on
# first use, by the sgm exact update).
LEAK_REPORT = "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
COLD_START_RUNS = {
    "import repro": "import sys\nimport repro",
    "python -m repro models list": (
        "import runpy, sys\n"
        "sys.argv = ['repro', 'models', 'list']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code"
    ),
}


@pytest.mark.parametrize("run", sorted(COLD_START_RUNS))
def test_cold_start_skips_scipy_stats_and_special(run):
    proc = run_python("-c", COLD_START_RUNS[run] + LEAK_REPORT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_sgm_fit_imports_scipy_sparse_on_first_use():
    # The lazy import end to end: nothing of scipy after ``import repro``,
    # scipy.sparse after the sgm golden case, and the case's digest unchanged.
    code = (
        "import json, sys\n"
        "from repro import golden\n"
        "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "case = golden.compute_case('sgm')\n"
        "print(json.dumps([before, 'scipy.sparse' in sys.modules, case]))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    before, sparse_loaded, case = json.loads(proc.stdout.splitlines()[-1])
    assert before == []
    assert sparse_loaded
    expected = golden.load_digests()
    problems = golden.compare_digests(
        {"schema": expected["schema"], "cases": {"sgm": expected["cases"]["sgm"]}},
        {"schema": golden.GOLDEN_SCHEMA, "cases": {"sgm": case}},
        relaxed=GOLDEN_RELAXED,
    )
    assert problems == []


class TestCli:
    def test_datasets_list(self):
        proc = run_cli("datasets", "list")
        assert proc.returncode == 0, proc.stderr
        for name in ("ppi", "facebook", "wiki", "blog", "epinions", "dblp"):
            assert name in proc.stdout

    def test_models_list(self):
        proc = run_cli("models", "list")
        assert proc.returncode == 0, proc.stderr
        for name in ("advsgm", "dpsgm", "gap", "dpar", "deepwalk"):
            assert name in proc.stdout

    def test_train_two_epochs(self, tmp_path):
        out = tmp_path / "emb.npz"
        proc = run_cli(
            "train", "--model", "advsgm", "--dataset", "ppi",
            "--epsilon", "6", "--scale", "0.1", "--seed", "0",
            "--set", "num_epochs=2", "--set", "discriminator_steps=2",
            "--set", "batch_size=4", "--set", "embedding_dim=8",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert "privacy spent" in proc.stdout
        embeddings = np.load(out)["embeddings"]
        assert embeddings.shape == (100, 8)

    def test_train_rejects_epsilon_for_nonprivate(self):
        proc = run_cli("train", "--model", "deepwalk", "--dataset", "ppi",
                       "--epsilon", "1")
        assert proc.returncode != 0
        assert "not private" in proc.stderr

    def test_train_refuses_a_budget_admitting_no_step(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["train", "--model", "advsgm", "--dataset", "ppi",
                  "--epsilon", "0.1", "--scale", "0.1"])
        message = str(info.value.code)
        assert "epsilon=0.1 at delta=1e-05 admits no training step" in message
        assert "0.183" in message
        assert "\n" not in message

    def test_unknown_config_field(self):
        proc = run_cli("train", "--model", "advsgm", "--dataset", "ppi",
                       "--set", "bogus=1")
        assert proc.returncode != 0
        assert "unknown config field" in proc.stderr

    def test_unknown_model_is_one_line_error(self):
        proc = run_cli("train", "--model", "nosuchmodel", "--dataset", "ppi")
        assert proc.returncode != 0
        assert "unknown model" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_dataset_is_one_line_error(self):
        proc = run_cli("train", "--model", "deepwalk", "--dataset", "nosuchdata")
        assert proc.returncode != 0
        assert "unknown dataset" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_dataset_in_evaluate(self):
        proc = run_cli("evaluate", "--model", "deepwalk", "--dataset", "nosuchdata")
        assert proc.returncode != 0
        assert "unknown dataset" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_override_value(self):
        proc = run_cli("train", "--model", "deepwalk", "--dataset", "ppi",
                       "--set", "num_epochs=banana")
        assert proc.returncode != 0
        assert "cannot parse" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_invalid_override_value_fails_config_validation(self):
        proc = run_cli("train", "--model", "deepwalk", "--dataset", "ppi",
                       "--set", "num_epochs=-3")
        assert proc.returncode != 0
        assert "invalid configuration" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_equals_in_override(self):
        proc = run_cli("train", "--model", "deepwalk", "--dataset", "ppi",
                       "--set", "num_epochs")
        assert proc.returncode != 0
        assert "field=value" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command,args", [
        ("train", ("--model", "sgm", "--dataset", "ppi")),
        ("evaluate", ("--model", "sgm", "--dataset", "ppi")),
        ("experiment", ("fig3", "--preset", "smoke")),
    ], ids=["train", "evaluate", "experiment"])
    def test_retired_backend_flag_is_one_line_error(self, command, args):
        # numpy is the only compute backend: no command offers a placement
        # flag, and the old one fails before any work, in one line.
        help_text = run_cli(command, "--help").stdout
        for flag in ("--backend", "--device", "--precision"):
            assert flag not in help_text
        proc = run_cli(command, *args, "--backend", "numpy")
        assert proc.returncode != 0
        assert proc.stderr.strip() == "unrecognized arguments: --backend numpy"

    def test_numpy_fast_spec_is_one_line_error(self):
        # The old "name:precision" spec fails like any retired flag: before
        # any work, in one line, without a traceback.
        proc = run_cli("train", "--model", "sgm", "--dataset", "ppi",
                       "--backend", "numpy:fast")
        assert proc.returncode != 0
        assert proc.stderr.strip() == "unrecognized arguments: --backend numpy:fast"

    def test_graph_command_is_gone(self):
        # Graphs are held in RAM only: no command builds or inspects an
        # on-disk graph directory.
        proc = run_cli("graph", "info", "x")
        assert proc.returncode == 2
        assert "invalid choice: 'graph'" in proc.stderr

    def test_on_disk_flag_is_one_line_error(self):
        proc = run_cli("train", "--model", "sgm", "--dataset", "ppi", "--on-disk")
        assert proc.returncode == 2
        assert proc.stderr.strip() == "unrecognized arguments: --on-disk"

    @pytest.mark.parametrize("flag", [
        ("--frontier-shard", "64"), ("--prefetch-pairs",), ("--prefetch-depth", "2"),
        ("--stream-pairs",), ("--chunk-walks", "64"), ("--walk-workers", "2"),
    ], ids=["frontier-shard", "prefetch-pairs", "prefetch-depth",
            "stream-pairs", "chunk-walks", "walk-workers"])
    def test_retired_walk_flags_are_one_line_errors(self, flag):
        proc = run_cli("train", "--model", "deepwalk", "--dataset", "ppi", *flag)
        assert proc.returncode != 0
        assert proc.stderr.strip() == f"unrecognized arguments: {' '.join(flag)}"

    def test_train_deepwalk_writes_embeddings(self, tmp_path):
        out = tmp_path / "emb.npz"
        proc = run_cli(
            "train", "--model", "deepwalk", "--dataset", "ppi",
            "--scale", "0.1", "--seed", "0",
            "--set", "num_epochs=1", "--set", "num_walks=1",
            "--set", "walk_length=8", "--set", "embedding_dim=8",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        embeddings = np.load(out)["embeddings"]
        assert embeddings.shape == (100, 8)

    def test_experiment_fig3_smoke_parallel(self):
        proc = run_cli(
            "experiment", "fig3", "--preset", "smoke", "--dataset", "ppi",
            "--models", "AdvSGM", "--epsilons", "1", "--workers", "2",
        )
        assert proc.returncode == 0, proc.stderr
        assert "Fig. 3" in proc.stdout
        assert "AdvSGM" in proc.stdout




@pytest.fixture
def no_model_built(monkeypatch):
    """Fail if an experiment cell builds a model: the CLI must refuse first."""
    from repro.experiments import runners

    def refuse(*args, **kwargs):
        raise AssertionError("a model was built before the CLI refused")

    monkeypatch.setattr(runners, "make_model", refuse)


@pytest.mark.parametrize("argv,flag", [
    (["table2", "--models", "AdvSGM"], "--models"),
    (["table3", "--epsilons", "1"], "--epsilons"),
    (["fig2", "--dataset", "ppi"], "--dataset"),
    (["fig2", "--cache-dir", "X"], "--cache-dir"),
    (["fig3", "--force"], "--force"),
], ids=["table2-models", "table3-epsilons", "fig2-dataset", "fig2-cache-dir",
        "fig3-force-without-cache"])
def test_experiment_refuses_options_its_run_does_not_take(argv, flag, no_model_built):
    from repro.cli import main

    with pytest.raises(SystemExit) as info:
        main(["experiment", *argv, "--preset", "smoke"])
    message = str(info.value.code)
    assert flag in message and argv[0] in message
    assert "\n" not in message


@pytest.mark.parametrize("argv", [
    ["evaluate", "--model", "advsgm", "--dataset", "facebook", "--epsilon", "6",
     "--task", "node_clustering", "--preset", "smoke"],
    ["experiment", "fig4", "--dataset", "facebook", "--preset", "smoke"],
], ids=["evaluate", "experiment-fig4"])
def test_node_clustering_on_unlabelled_dataset_is_one_line_error(argv, no_model_built):
    from repro.cli import main

    with pytest.raises(SystemExit) as info:
        main(argv)
    message = str(info.value.code)
    assert "'facebook'" in message and "labels" in message
    assert "\n" not in message


def test_evaluate_refuses_negative_repeat():
    # A negative repeat would derive a negative seed and die inside numpy.
    from repro.cli import main

    with pytest.raises(SystemExit) as info:
        main(["evaluate", "--model", "sgm", "--dataset", "ppi", "--repeat", "-1"])
    message = str(info.value.code)
    assert "--repeat" in message and "\n" not in message


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_negative_seed_is_one_line_error(command, monkeypatch, no_model_built):
    # numpy refuses negative seeds with a ValueError from deep inside
    # default_rng; both commands refuse before a dataset is drawn.
    from repro import cli

    def refuse_load(*args, **kwargs):
        raise AssertionError("a dataset was loaded before the CLI refused")

    monkeypatch.setattr(cli, "load_dataset", refuse_load)
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--model", "sgm", "--dataset", "ppi", "--seed", "-1"])
    message = str(info.value.code)
    assert message == "--seed must be non-negative, got -1"


FIG3_SMOKE = ["experiment", "fig3", "--preset", "smoke", "--dataset", "ppi",
              "--models", "AdvSGM"]
EVALUATE_SMOKE = ["evaluate", "--model", "advsgm", "--dataset", "ppi", "--preset", "smoke"]


@pytest.mark.parametrize("argv,flag", [
    (FIG3_SMOKE + ["--epsilons", "6", "-1"], "--epsilons"),
    (FIG3_SMOKE + ["--epsilons", "nan", "6"], "--epsilons"),
    (EVALUATE_SMOKE + ["--epsilon", "-1"], "--epsilon"),
    (EVALUATE_SMOKE + ["--epsilon", "6", "--scale", "0"], "--scale"),
    (EVALUATE_SMOKE + ["--epsilon", "6", "--scale", "inf"], "--scale"),
], ids=["fig3-negative-epsilon", "fig3-nan-epsilon", "evaluate-negative-epsilon",
        "evaluate-zero-scale", "evaluate-infinite-scale"])
def test_out_of_range_budget_or_scale_is_refused_before_training(
    argv, flag, tmp_path, monkeypatch, no_model_built
):
    # The valid epsilon of a sweep must not train (or be cached) before an
    # invalid one further down the list is noticed.
    from repro.cli import main
    from repro.experiments import runners

    def refuse_load(*args, **kwargs):
        raise AssertionError("a dataset was loaded before the CLI refused")

    monkeypatch.setattr(runners, "load_dataset", refuse_load)
    cache = tmp_path / "cache"
    if argv[0] == "experiment":
        argv = argv + ["--cache-dir", str(cache)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    message = str(info.value.code)
    assert message.startswith(f"{flag} must be a positive finite number")
    assert "\n" not in message
    assert not list(cache.glob("entries/**/*"))
