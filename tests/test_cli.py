"""Smoke tests for the ``python -m repro`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def run_cli(*args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


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

    @pytest.mark.parametrize("command", ["train", "evaluate", "experiment"])
    def test_backend_spec_string_is_the_only_placement_flag(self, command):
        proc = run_cli(command, "--help")
        assert proc.returncode == 0, proc.stderr
        assert "name[:device][:precision]" in proc.stdout
        assert "--device" not in proc.stdout and "--precision" not in proc.stdout

    def test_numpy_fast_spec_is_one_line_error(self):
        proc = run_cli("train", "--model", "sgm", "--dataset", "ppi",
                       "--backend", "numpy:fast")
        assert proc.returncode != 0
        assert "does not support precision 'fast'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_stream_flags_rejected_for_non_walk_models(self):
        proc = run_cli("train", "--model", "sgm", "--dataset", "ppi",
                       "--stream-pairs")
        assert proc.returncode != 0
        assert "not supported" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", [
        ("--frontier-shard", "64"), ("--prefetch-pairs",), ("--prefetch-depth", "2"),
    ], ids=["frontier-shard", "prefetch-pairs", "prefetch-depth"])
    def test_retired_walk_flags_are_one_line_errors(self, flag):
        proc = run_cli("train", "--model", "deepwalk", "--dataset", "ppi", *flag)
        assert proc.returncode != 0
        assert proc.stderr.strip() == f"unrecognized arguments: {' '.join(flag)}"

    def test_train_streaming_deepwalk(self, tmp_path):
        out = tmp_path / "emb.npz"
        proc = run_cli(
            "train", "--model", "deepwalk", "--dataset", "ppi",
            "--scale", "0.1", "--seed", "0", "--stream-pairs",
            "--chunk-walks", "64",
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


class TestServiceCli:
    """Error handling of the service subcommands: one-line errors, no tracebacks."""

    def write_spec(self, tmp_path):
        from repro.api import ExperimentSpec, ModelSpec

        spec = ExperimentSpec(
            task="link_prediction",
            datasets=("ppi",),
            models=(ModelSpec("deepwalk"),),
            epsilons=(None,),
            repeats=1,
            base_seed=11,
            dataset_scale=0.1,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        return path

    def assert_one_line_error(self, proc, fragment):
        assert proc.returncode != 0
        assert fragment in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_submit_unknown_spec_file(self, tmp_path):
        proc = run_cli("submit", str(tmp_path / "nosuch.json"),
                       "--server", "http://127.0.0.1:1")
        self.assert_one_line_error(proc, "cannot read spec file")

    def test_submit_malformed_json_spec_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("submit", str(bad), "--server", "http://127.0.0.1:1")
        self.assert_one_line_error(proc, "is not valid JSON")

    def test_submit_valid_json_invalid_spec(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"task": "link_prediction"}))
        proc = run_cli("submit", str(bogus), "--server", "http://127.0.0.1:1")
        self.assert_one_line_error(proc, "invalid experiment spec")

    @pytest.mark.parametrize("field", ["device", "precision"])
    def test_submit_spec_with_retired_placement_field(self, tmp_path, field):
        path = self.write_spec(tmp_path)
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, field: "cuda"}))
        proc = run_cli("submit", str(path), "--server", "http://127.0.0.1:1")
        self.assert_one_line_error(proc, "name it in the backend spec string")

    def test_submit_spec_with_null_placement_fields_still_loads(self, tmp_path):
        # Older spec JSON carries explicit nulls; it loads and gets as far as
        # contacting the (absent) server.
        path = self.write_spec(tmp_path)
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "device": None, "precision": None}))
        proc = run_cli("submit", str(path), "--server", "http://127.0.0.1:1")
        self.assert_one_line_error(proc, "cannot reach server")

    def test_submit_unreachable_server(self, tmp_path):
        # Port 1 on loopback refuses instantly -- no server, no timeout.
        proc = run_cli("submit", str(self.write_spec(tmp_path)),
                       "--server", "http://127.0.0.1:1")
        self.assert_one_line_error(proc, "cannot reach server")

    def test_status_unreachable_server(self):
        proc = run_cli("status", "--server", "http://127.0.0.1:1")
        self.assert_one_line_error(proc, "cannot reach server")

    def test_worker_unreachable_server_fails_fast(self):
        proc = run_cli("worker", "--server", "http://127.0.0.1:1")
        self.assert_one_line_error(proc, "cannot reach server")

    def test_serve_unbindable_host(self, tmp_path):
        proc = run_cli("serve", "--host", "256.0.0.1", "--port", "0",
                       "--cache-dir", str(tmp_path))
        assert proc.returncode != 0
        assert "cannot" in proc.stderr
        assert "Traceback" not in proc.stderr
