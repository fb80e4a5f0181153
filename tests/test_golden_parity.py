"""Golden-parity regression suite: today's bit-for-bit outputs are pinned.

``tests/golden/golden_digests.json`` records sha256 digests of the
embeddings (and scalar metrics) of small runs of all eleven registered
models.  These tests recompute each case from scratch and require exact
equality — any drift means a numerical behaviour change, which invalidates
previously cached experiment results and must be intentional.

Regenerate the fixture after an intentional change with::

    PYTHONPATH=src python -m repro golden --update

On a machine whose BLAS build differs from the fixture's (last-ulp kernel
differences, not behaviour changes), set ``REPRO_GOLDEN_RELAXED=1`` to
compare the scalar metrics within a tiny tolerance instead of raw bytes.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import golden

FIXTURE = Path(__file__).parent / "golden" / "golden_digests.json"
RELAXED = os.environ.get("REPRO_GOLDEN_RELAXED", "") not in ("", "0")


@pytest.fixture(scope="module")
def expected():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def graph():
    return golden.golden_graph()


class TestGoldenParity:
    def test_fixture_is_committed(self, expected):
        assert expected["schema"] == golden.GOLDEN_SCHEMA
        assert set(expected["cases"]) == set(golden.GOLDEN_CASES)
        assert expected["dataset"] == {
            "name": golden.GOLDEN_DATASET,
            "scale": golden.GOLDEN_SCALE,
            "seed": golden.GOLDEN_DATASET_SEED,
        }

    def test_fixture_records_cache_schema(self, expected):
        from repro.cache import CACHE_SCHEMA_VERSION

        assert expected["cache_schema"] == CACHE_SCHEMA_VERSION

    def test_every_registered_model_has_a_case(self):
        from repro.api.registry import list_models

        models = [case["model"] for case in golden.GOLDEN_CASES.values()]
        assert sorted(models) == sorted(list_models())

    @pytest.mark.parametrize("name", sorted(golden.GOLDEN_CASES))
    def test_case_matches_fixture_bit_for_bit(self, name, expected, graph):
        actual = golden.compute_case(name, graph)
        if RELAXED:
            problems = golden.compare_digests(
                {"schema": expected["schema"], "cases": {name: expected["cases"][name]}},
                {"schema": golden.GOLDEN_SCHEMA, "cases": {name: actual}},
                relaxed=True,
            )
            assert problems == []
            return
        assert actual == expected["cases"][name], (
            f"golden digest drift for {name!r}: the model's output changed "
            "bit-for-bit; if intentional, regenerate with "
            "`python -m repro golden --update` and call out the change"
        )

    def test_recompute_is_deterministic(self, graph):
        """Two in-process recomputes agree — the digests are stable at all."""
        first = golden.compute_case("deepwalk", graph)
        second = golden.compute_case("deepwalk", graph)
        assert first == second

    def test_compare_digests_reports_drift(self, expected):
        mutated = json.loads(json.dumps(expected))
        mutated["cases"]["sgm"]["embeddings_sha256"] = "0" * 64
        problems = golden.compare_digests(mutated, expected | {})
        assert any("sgm.embeddings_sha256" in p for p in problems)
        assert golden.compare_digests(expected, expected) == []

    def test_digest_is_over_raw_bytes(self):
        array = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert golden._sha256_array(array) == golden._sha256_array(array.copy())
        flipped = array.copy()
        flipped[0, 0] = np.nextafter(flipped[0, 0], 1.0)
        assert golden._sha256_array(array) != golden._sha256_array(flipped)


class TestGoldenCli:
    def test_check_passes_against_fixture(self, capsys):
        from repro.cli import main

        assert main(["golden", "--check", "--path", str(FIXTURE)]) == 0
        assert "golden parity OK" in capsys.readouterr().out

    def test_check_fails_on_drift(self, tmp_path, expected, capsys):
        from repro.cli import main

        mutated = json.loads(json.dumps(expected))
        mutated["cases"]["advsgm"]["embeddings_sha256"] = "0" * 64
        bad = tmp_path / "bad_digests.json"
        bad.write_text(json.dumps(mutated))
        with pytest.raises(SystemExit):
            main(["golden", "--check", "--path", str(bad)])
        assert "MISMATCH" in capsys.readouterr().out

    def test_relaxed_requires_check(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--relaxed only applies"):
            main(["golden", "--relaxed"])

    def test_update_writes_identical_fixture(self, tmp_path, expected):
        from repro.cli import main

        target = tmp_path / "regen.json"
        assert main(["golden", "--update", "--path", str(target)]) == 0
        with open(target, "r", encoding="utf-8") as handle:
            regenerated = json.load(handle)
        if RELAXED:
            assert golden.compare_digests(expected, regenerated, relaxed=True) == []
        else:
            assert regenerated == expected

    def test_update_refuses_changed_digest_until_schema_bump(
        self, tmp_path, expected, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setattr(golden, "GOLDEN_CASES", {"sgm": golden.GOLDEN_CASES["sgm"]})
        fixture = tmp_path / "digests.json"
        update = ["golden", "--update", "--path", str(fixture)]
        # A case the fixture does not hold yet is an addition: no bump.
        fixture.write_text(json.dumps(dict(expected, cases={})))
        assert main(update) == 0
        # A changed digest under the recorded schema is refused, and the
        # fixture is left as it was.
        stale = json.loads(fixture.read_text())
        stale["cases"]["sgm"]["embeddings_sha256"] = "0" * 64
        fixture.write_text(json.dumps(stale))
        with pytest.raises(SystemExit, match=r"refusing to rewrite changed golden digest\(s\) sgm: "
                           r".* records CACHE_SCHEMA_VERSION 2; bump it") as refused:
            main(update)
        assert "\n" not in str(refused.value)
        assert json.loads(fixture.read_text()) == stale
        # After a bump the same rewrite goes through and records the new version.
        monkeypatch.setattr(golden, "CACHE_SCHEMA_VERSION", golden.CACHE_SCHEMA_VERSION + 1)
        assert main(update) == 0
        written = json.loads(fixture.read_text())
        assert written["cache_schema"] == 3
        assert written["cases"]["sgm"]["embeddings_sha256"] != "0" * 64

    def test_relaxed_check_accepts_ulp_drift_rejects_behaviour_change(self, expected):
        mutated = json.loads(json.dumps(expected))
        case = mutated["cases"]["deepwalk"]
        case["embeddings_sha256"] = "0" * 64  # byte drift alone: relaxed-OK
        case["metrics"]["frobenius_norm"] *= 1 + 1e-12
        assert golden.compare_digests(expected, mutated, relaxed=True) == []
        case["metrics"]["frobenius_norm"] *= 1 + 1e-6  # real numerical change
        problems = golden.compare_digests(expected, mutated, relaxed=True)
        assert any("deepwalk.metrics" in p for p in problems)
