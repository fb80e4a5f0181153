"""Tests for the embedding service: scheduler leases, HTTP surface, workers.

The contract under test is the distributed analogue of the cache's:

* two workers draining a submitted spec produce rows and embeddings
  bit-identical to a serial ``run_spec(spec)`` of the same spec;
* a worker that dies mid-lease (SIGKILL) loses nothing — its lease expires
  and the remaining worker completes the sweep;
* duplicate completions are idempotent, and the etag'd embeddings read
  path answers revalidation with ``304``.

Everything runs in-process on loopback with ephemeral ports (the SIGKILL
test spawns its victim worker as a real subprocess) — no fixed ports, no
network flakiness.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import ExperimentCell, ExperimentSpec, ModelSpec
from repro.cache import ResultStore, cell_key, spec_key
from repro.experiments.runners import run_spec
from repro.service import (
    CellScheduler,
    SchedulerError,
    ServiceClient,
    ServiceError,
    ServiceServer,
    ServiceWorker,
)
from repro.service.worker import FAULT_DELAY_ENV

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: Tiny deepwalk schedule: one cell trains in well under a second.
FAST_DEEPWALK = dict(
    num_walks=1, walk_length=5, num_epochs=1, embedding_dim=8, batch_size=64
)


def tiny_cell(**changes):
    defaults = dict(
        task="link_prediction",
        dataset="ppi",
        model=ModelSpec("deepwalk", overrides=FAST_DEEPWALK),
        epsilon=None,
        repeat=0,
        seed=11,
        dataset_scale=0.1,
        dataset_seed=11,
        test_fraction=0.1,
    )
    defaults.update(changes)
    return ExperimentCell(**defaults)


def tiny_spec(repeats=4):
    """A fig3-shaped (dataset x model x epsilon x repeat) grid, kept tiny."""
    return ExperimentSpec(
        task="link_prediction",
        datasets=("ppi",),
        models=(ModelSpec("deepwalk", overrides=FAST_DEEPWALK),),
        epsilons=(None,),
        repeats=repeats,
        base_seed=11,
        dataset_scale=0.1,
    )


class FakeClock:
    """Injectable monotonic clock so lease expiry needs no sleeping."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def fake_row(cell):
    """A synthetic result row — scheduler tests never train anything."""
    return {"auc": 0.5, "seed": cell.seed, "repeat": cell.repeat}


# ---------------------------------------------------------------------------
# scheduler core (no HTTP, no training)
# ---------------------------------------------------------------------------
class TestCellScheduler:
    def make(self, tmp_path, **kwargs):
        kwargs.setdefault("lease_seconds", 10.0)
        clock = kwargs.pop("clock", FakeClock())
        scheduler = CellScheduler(ResultStore(tmp_path), clock=clock, **kwargs)
        return scheduler, clock

    def test_submit_counts_and_fifo_lease_order(self, tmp_path):
        scheduler, _ = self.make(tmp_path)
        spec = tiny_spec(repeats=3)
        outcome = scheduler.submit(spec)
        assert outcome["spec_id"] == spec_key(spec)
        assert outcome["cells"] == 3
        assert outcome["cached"] == 0 and outcome["pending"] == 3
        keys = [cell_key(cell) for cell in spec.cells()]
        leased = [scheduler.lease(worker="w")["cell_key"] for _ in range(3)]
        assert leased == keys  # spec.cells() order
        assert scheduler.lease(worker="w") is None  # queue drained

    def test_skip_on_submit_for_cells_already_in_store(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = tiny_spec(repeats=3)
        done_cell = spec.cells()[1]
        store.put(done_cell, fake_row(done_cell), embeddings=np.zeros((4, 2)))
        scheduler = CellScheduler(store, lease_seconds=10.0, clock=FakeClock())
        outcome = scheduler.submit(spec)
        assert outcome["cached"] == 1 and outcome["pending"] == 2
        leased = {scheduler.lease()["cell_key"] for _ in range(2)}
        assert cell_key(done_cell) not in leased
        progress = scheduler.progress(outcome["spec_id"])
        assert progress["done"] == 1 and progress["cached"] == 1

    def test_store_without_embeddings_is_not_done_when_serving_them(self, tmp_path):
        # An embeddings-serving scheduler must not skip a row-only entry:
        # the read path would 404 on a cell the service calls done.
        store = ResultStore(tmp_path)
        cell = tiny_spec(repeats=1).cells()[0]
        store.put(cell, fake_row(cell))  # no embeddings stored
        scheduler = CellScheduler(store, lease_seconds=10.0, clock=FakeClock())
        assert scheduler.submit(tiny_spec(repeats=1))["cached"] == 0
        rowonly = CellScheduler(
            store, lease_seconds=10.0, store_embeddings=False, clock=FakeClock()
        )
        assert rowonly.submit(tiny_spec(repeats=1))["cached"] == 1

    def test_lease_expiry_requeues_the_cell(self, tmp_path):
        scheduler, clock = self.make(tmp_path, lease_seconds=10.0)
        sid = scheduler.submit(tiny_spec(repeats=1))["spec_id"]
        first = scheduler.lease(worker="doomed")
        assert scheduler.lease(worker="other") is None  # nothing else pending
        assert scheduler.progress(sid)["leased"] == 1
        clock.advance(10.1)  # past the deadline: the worker is presumed dead
        second = scheduler.lease(worker="other")
        assert second is not None
        assert second["cell_key"] == first["cell_key"]
        assert second["lease_id"] != first["lease_id"]
        with pytest.raises(SchedulerError):
            scheduler.renew(first["lease_id"])  # forfeited lease is gone

    def test_renew_extends_the_deadline(self, tmp_path):
        scheduler, clock = self.make(tmp_path, lease_seconds=10.0)
        scheduler.submit(tiny_spec(repeats=1))
        lease = scheduler.lease(worker="w")
        for _ in range(3):  # renewals carry the lease far past one window
            clock.advance(9.0)
            scheduler.renew(lease["lease_id"])
        clock.advance(9.0)
        outcome = scheduler.report(
            lease["cell_key"], row=fake_row(tiny_cell()),
            lease_id=lease["lease_id"],
        )
        assert outcome["status"] == "stored"

    def test_duplicate_report_is_a_noop(self, tmp_path):
        scheduler, _ = self.make(tmp_path)
        sid = scheduler.submit(tiny_spec(repeats=1))["spec_id"]
        lease = scheduler.lease(worker="w")
        row = fake_row(tiny_cell())
        first = scheduler.report(
            lease["cell_key"], row=row, lease_id=lease["lease_id"]
        )
        assert first["status"] == "stored"
        assert scheduler.store.stats.writes == 1
        duplicate = scheduler.report(lease["cell_key"], row=row)
        assert duplicate["status"] == "duplicate"
        assert scheduler.store.stats.writes == 1  # nothing rewritten
        assert scheduler.progress(sid)["done"] == 1

    def test_late_report_from_expired_lease_is_accepted(self, tmp_path):
        # The computation is deterministic, so a result is a result no
        # matter whose lease it rode; the re-leased worker's later report
        # is then the duplicate no-op.
        scheduler, clock = self.make(tmp_path, lease_seconds=10.0)
        scheduler.submit(tiny_spec(repeats=1))
        slow = scheduler.lease(worker="slow")
        clock.advance(11.0)
        fast = scheduler.lease(worker="fast")
        assert fast["cell_key"] == slow["cell_key"]
        late = scheduler.report(
            slow["cell_key"], row=fake_row(tiny_cell()), lease_id=slow["lease_id"]
        )
        assert late["status"] == "stored"
        echo = scheduler.report(
            fast["cell_key"], row=fake_row(tiny_cell()), lease_id=fast["lease_id"]
        )
        assert echo["status"] == "duplicate"
        assert scheduler.outstanding() == 0

    def test_error_reports_requeue_until_the_attempt_budget(self, tmp_path):
        scheduler, _ = self.make(tmp_path, max_attempts=2)
        sid = scheduler.submit(tiny_spec(repeats=1))["spec_id"]
        lease = scheduler.lease(worker="w")
        first = scheduler.report(
            lease["cell_key"], error="boom", lease_id=lease["lease_id"]
        )
        assert first == {"status": "requeued", "attempts": 1}
        retry = scheduler.lease(worker="w")  # requeued, so leasable again
        assert retry["cell_key"] == lease["cell_key"]
        second = scheduler.report(
            retry["cell_key"], error="boom", lease_id=retry["lease_id"]
        )
        assert second == {"status": "failed", "attempts": 2}
        progress = scheduler.progress(sid)
        assert progress["status"] == "failed" and progress["failed"] == 1
        assert scheduler.lease(worker="w") is None

    def test_expiry_does_not_burn_the_attempt_budget(self, tmp_path):
        scheduler, clock = self.make(tmp_path, max_attempts=1)
        scheduler.submit(tiny_spec(repeats=1))
        for _ in range(5):  # five dead workers in a row
            assert scheduler.lease(worker="doomed") is not None
            clock.advance(11.0)
        survivor = scheduler.lease(worker="survivor")
        assert survivor is not None  # still pending, not failed

    def test_unknown_references_raise(self, tmp_path):
        scheduler, _ = self.make(tmp_path)
        with pytest.raises(SchedulerError):
            scheduler.report("0" * 64, row={"auc": 0.5})
        with pytest.raises(SchedulerError):
            scheduler.renew("nosuchlease")
        with pytest.raises(SchedulerError):
            scheduler.progress("0" * 64)

    def test_progress_accepts_unique_prefix(self, tmp_path):
        scheduler, _ = self.make(tmp_path)
        sid = scheduler.submit(tiny_spec(repeats=1))["spec_id"]
        assert scheduler.progress(sid[:12])["spec_id"] == sid


# ---------------------------------------------------------------------------
# HTTP surface + workers
# ---------------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path):
    with ServiceServer(
        store=ResultStore(tmp_path / "store"), lease_seconds=10.0
    ) as srv:
        yield srv


class TestHttpSurface:
    @pytest.mark.timeout(120)
    def test_two_workers_drain_bit_identical_to_serial_run_spec(self, tmp_path):
        """Acceptance: service rows/embeddings == serial run_spec, bit-for-bit."""
        spec = tiny_spec(repeats=4)
        serial_store = ResultStore(tmp_path / "serial")
        serial_rows = run_spec(spec, cache=serial_store, store_embeddings=True)

        with ServiceServer(
            store=ResultStore(tmp_path / "service"), lease_seconds=10.0
        ) as srv:
            client = ServiceClient(srv.base_url)
            outcome = client.submit(spec)
            assert outcome["cells"] == 4 and outcome["pending"] == 4
            workers = [
                ServiceWorker(srv.base_url, name=f"w{i}", drain=True,
                              poll_interval=0.05)
                for i in range(2)
            ]
            threads = [threading.Thread(target=w.run) for w in workers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90)
            assert not any(thread.is_alive() for thread in threads)
            assert sum(w.completed for w in workers) == 4  # no double compute
            progress = client.status(outcome["spec_id"])
            assert progress["status"] == "completed" and progress["done"] == 4

            for cell, serial_row in zip(spec.cells(), serial_rows):
                assert srv.store.get(cell) == serial_row
                np.testing.assert_array_equal(
                    srv.store.load_embeddings(cell),
                    serial_store.load_embeddings(cell),
                )

            # A resubmit of the drained spec reports every cell cached.
            again = client.submit(spec)
            assert again["cached"] == again["cells"] == 4

    @pytest.mark.timeout(60)
    def test_embeddings_read_path_200_then_304(self, server):
        cell = tiny_cell()
        key = cell_key(cell)
        rng = np.random.default_rng(0)
        stored = rng.normal(size=(7, 3))  # float64, negative values, exact
        server.store.put(cell, fake_row(cell), embeddings=stored)
        client = ServiceClient(server.base_url)

        status, etag, fetched = client.embeddings(key)
        assert status == 200
        assert etag == key  # the content-address is the validator
        np.testing.assert_array_equal(fetched, stored)
        assert fetched.dtype == stored.dtype

        status, etag, body = client.embeddings(key, etag=key)
        assert status == 304 and body is None and etag == key
        # Quoted etags (what a spec-following HTTP cache sends) also hit.
        status, _, body = client.embeddings(key, etag=f'"{key}"')
        assert status == 304 and body is None
        # A different validator misses and gets the bytes again.
        status, _, refetched = client.embeddings(key, etag="f" * 64)
        assert status == 200
        np.testing.assert_array_equal(refetched, stored)

    def test_embeddings_raw_http_304_has_empty_body(self, server):
        cell = tiny_cell()
        key = cell_key(cell)
        server.store.put(cell, fake_row(cell), embeddings=np.ones((2, 2)))
        request = urllib.request.Request(
            f"{server.base_url}/embeddings/{key}",
            headers={"If-None-Match": f'"{key}"'},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 304
        assert excinfo.value.read() == b""
        assert excinfo.value.headers["ETag"] == f'"{key}"'

    def test_embeddings_unknown_key_404(self, server):
        client = ServiceClient(server.base_url)
        with pytest.raises(ServiceError, match="404"):
            client.embeddings("deadbeef" * 8)

    def test_embeddings_row_only_entry_404(self, server):
        cell = tiny_cell()
        server.store.put(cell, fake_row(cell))  # no embeddings stored
        client = ServiceClient(server.base_url)
        with pytest.raises(ServiceError, match="404"):
            client.embeddings(cell_key(cell))

    def test_cache_endpoint_matches_cli_report_format(self, server):
        cell = tiny_cell()
        server.store.put(cell, fake_row(cell))
        report = ServiceClient(server.base_url).cache_report()
        assert report == server.store.report()
        assert report["count"] == 1
        assert report["entries"][0]["key"] == cell_key(cell)
        assert set(report["stats"]) == {"hits", "misses", "writes", "stale"}

    def test_malformed_json_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.base_url}/lease", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "malformed JSON" in json.loads(excinfo.value.read())["error"]

    def test_invalid_spec_is_400(self, server):
        client = ServiceClient(server.base_url)
        with pytest.raises(ServiceError, match="invalid experiment spec"):
            client._json("POST", "/specs", {"spec": {"task": "nonsense"}})

    @pytest.mark.parametrize("field, value, message", [
        ("name", "no-such-model", "unknown model 'no-such-model'"),
        ("overrides", {"learning_rat": 0.1}, r"unknown config field\(s\) \['learning_rat'\]"),
        ("overrides", {"device": "cuda"}, "backend spec string"),
        ("overrides", {"precision": "fast"}, "backend spec string"),
        ("device", "cuda", "'device' is no longer"),
        ("precision", "fast", "'precision' is no longer"),
        ("overrides", {"frontier_shard": 64}, r"unknown config field\(s\) \['frontier_shard'\]"),
        ("overrides", {"pair_prefetch": True}, r"unknown config field\(s\) \['pair_prefetch'\]"),
        ("overrides", {"prefetch_depth": 2}, r"unknown config field\(s\) \['prefetch_depth'\]"),
    ], ids=["unknown-model", "unknown-field", "device-override",
            "precision-override", "device-field", "precision-field",
            "frontier-shard-override", "pair-prefetch-override",
            "prefetch-depth-override"])
    def test_unbuildable_spec_is_400_and_enqueues_nothing(
        self, server, field, value, message
    ):
        """A spec that could never build its model is refused at submission,
        instead of failing on every worker lease until the retries run out."""
        data = tiny_spec(repeats=1).to_dict()
        if field in ("name", "overrides"):
            data["models"][0][field] = value
        else:
            data[field] = value
        client = ServiceClient(server.base_url)
        with pytest.raises(ServiceError, match=f"400 invalid experiment spec: .*{message}") as excinfo:
            client._json("POST", "/specs", {"spec": data})
        assert "\n" not in str(excinfo.value)
        assert client.status()["specs"] == []
        assert server.scheduler.outstanding() == 0

    def test_parent_format_spec_json_still_submits(self, server):
        # Spec JSON written before the backend spec string became the only
        # placement knob carries explicit null device/precision entries.
        data = {**tiny_spec(repeats=1).to_dict(), "device": None, "precision": None}
        outcome = ServiceClient(server.base_url)._json("POST", "/specs", {"spec": data})
        assert outcome["cells"] == 1 and outcome["pending"] == 1

    def test_unknown_endpoint_is_404(self, server):
        client = ServiceClient(server.base_url)
        with pytest.raises(ServiceError, match="404"):
            client._json("GET", "/nosuch")
        with pytest.raises(ServiceError, match="404"):
            client._json("POST", "/specs/extra/deep", {})

    def test_unknown_spec_progress_is_404(self, server):
        client = ServiceClient(server.base_url)
        with pytest.raises(ServiceError, match="unknown spec"):
            client.status("0" * 64)

    def test_unreachable_server_is_one_line_service_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=2.0)
        with pytest.raises(ServiceError, match="cannot reach server"):
            client.health()

    @pytest.mark.timeout(60)
    def test_worker_reports_compute_errors_and_cell_fails(self, tmp_path):
        bad_spec = ExperimentSpec(
            task="link_prediction",
            datasets=("ppi",),
            models=(ModelSpec(
                "deepwalk", overrides={**FAST_DEEPWALK, "walk_length": -1},
            ),),
            epsilons=(None,),
            repeats=1,
            base_seed=11,
            dataset_scale=0.1,
        )
        with ServiceServer(
            store=ResultStore(tmp_path / "store"),
            lease_seconds=10.0,
            max_attempts=2,
        ) as srv:
            client = ServiceClient(srv.base_url)
            sid = client.submit(bad_spec)["spec_id"]
            worker = ServiceWorker(
                srv.base_url, name="w", drain=True, poll_interval=0.05
            )
            worker.run()
            assert worker.completed == 0 and worker.failed == 2
            progress = client.status(sid)
            assert progress["status"] == "failed" and progress["failed"] == 1
            assert len(srv.store) == 0  # nothing bogus was persisted


# ---------------------------------------------------------------------------
# worker death (real SIGKILL)
# ---------------------------------------------------------------------------
class TestWorkerDeath:
    @pytest.mark.timeout(120)
    def test_sigkilled_worker_sweep_still_completes(self, tmp_path):
        """Acceptance: SIGKILL mid-lease loses nothing; survivor finishes."""
        spec = tiny_spec(repeats=3)
        serial_rows = run_spec(spec)  # uncached serial reference

        with ServiceServer(
            store=ResultStore(tmp_path / "store"), lease_seconds=1.0
        ) as srv:
            client = ServiceClient(srv.base_url)
            sid = client.submit(spec)["spec_id"]

            env = dict(os.environ)
            env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
            env[FAULT_DELAY_ENV] = "120"  # hold the lease, never compute
            victim = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--server", srv.base_url, "--poll-interval", "0.05"],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                deadline = time.monotonic() + 30
                while client.status(sid)["leased"] == 0:
                    assert time.monotonic() < deadline, "victim never leased"
                    time.sleep(0.02)
                victim.send_signal(signal.SIGKILL)  # dies holding its lease
                victim.wait(timeout=30)
            finally:
                if victim.poll() is None:
                    victim.kill()

            survivor = ServiceWorker(
                srv.base_url, name="survivor", drain=True, poll_interval=0.05
            )
            survivor.run()
            progress = client.status(sid)
            assert progress["status"] == "completed"
            assert progress["done"] == 3 and progress["failed"] == 0
            assert survivor.completed == 3  # including the re-leased cell
            for cell, serial_row in zip(spec.cells(), serial_rows):
                assert srv.store.get(cell) == serial_row
