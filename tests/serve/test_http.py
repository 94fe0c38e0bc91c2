"""The HTTP front door, end-to-end on a real asyncio server.

Each fixture spins a :class:`BackgroundServer` on an ephemeral port and
talks to it with the stdlib client — the same path curl takes.
"""

import threading

import pytest

from repro.serve import (
    BackgroundServer,
    Job,
    JobRequest,
    JobRunner,
    ServeClient,
    ServeConfig,
    ServeCore,
    ServeServer,
    WorkerKilled,
)


def make_server(tmp_path, runner_factory=None, **config_overrides):
    config = dict(
        workers=2,
        max_queue_depth=8,
        checkpoint_root=str(tmp_path / "ckpts"),
    )
    config.update(config_overrides)
    server = ServeServer(
        ServeCore(ServeConfig(**config)),
        port=0,
        runner_factory=runner_factory,
        worker_poll_seconds=0.01,
    )
    return BackgroundServer(server)


def job_payload(**overrides):
    body = {
        "tenant": "acme",
        "specs": [{"num_joins": 1}],
        "queries": 8,
        "intervals": 2,
        "seed": 3,
    }
    body.update(overrides)
    return body


@pytest.fixture
def service(tmp_path):
    background = make_server(tmp_path)
    url = background.start()
    client = ServeClient(url)
    yield client, background
    background.drain_and_stop()


class TestProtocol:
    def test_healthz(self, service):
        client, _ = service
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_submit_and_complete(self, service):
        client, _ = service
        status, body, _headers = client.submit(job_payload())
        assert status == 202
        final = client.wait_for(body["job_id"])
        assert final["state"] == "completed"
        assert final["result"]["queries"] >= 1
        assert len(final["result"]["fingerprint"]) == 64

    def test_job_table_and_single_lookup(self, service):
        client, _ = service
        _, body, _ = client.submit(job_payload())
        client.wait_for(body["job_id"])
        table = client.jobs()
        assert any(j["job_id"] == body["job_id"] for j in table)
        status, one = client.job(body["job_id"])
        assert status == 200
        assert one["tenant"] == "acme"

    def test_unknown_job_is_404(self, service):
        client, _ = service
        status, body = client.job("job-9999")
        assert status == 404

    def test_bad_payload_is_400(self, service):
        client, _ = service
        status, body, _ = client.submit({"tenant": ""})
        assert status == 400
        assert body["error"] == "bad_request"

    def test_unknown_route_is_404_and_wrong_method_405(self, service):
        client, _ = service
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("DELETE", "/v1/jobs")[0] == 405

    def test_stats_exposes_counters(self, service):
        client, _ = service
        stats = client.stats()
        assert "queue_depth" in stats
        assert "rejections" in stats


class TestNumericFieldValidation:
    """Client mistakes in numeric fields get a 400, never a 500 or a 202.

    The client serializes NaN and the infinities as the bare ``NaN`` /
    ``Infinity`` tokens the server's JSON decoder accepts, so these
    reach ``JobRequest.from_payload`` exactly as a hand-written body would.
    """

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cost_min", "abc"),
            ("cost_max", "abc"),
            ("cost_min", True),
            ("cost_max", float("nan")),
            ("cost_min", float("-inf")),
            ("cost_max", 10**400),
            ("deadline_seconds", float("nan")),
            ("deadline_seconds", float("inf")),
            ("deadline_seconds", True),
            ("max_cost_dollars", "1.0"),
            ("max_cost_dollars", float("inf")),
            ("query_timeout_seconds", float("nan")),
            ("query_timeout_seconds", False),
            ("max_tokens", True),
            ("priority", True),
        ],
        ids=lambda v: repr(v) if not isinstance(v, str) else v,
    )
    def test_bad_value_is_400(self, service, field, value):
        client, background = service
        status, body, _ = client.submit(job_payload(**{field: value}))
        assert status == 400, body
        assert body["error"] == "bad_request"
        assert field in body["reason"]
        assert background.server.core.audit_lost_jobs() == []

    def test_finite_numbers_still_accepted(self, service):
        client, _ = service
        status, body, _ = client.submit(job_payload(
            cost_min=0, cost_max=150.5, deadline_seconds=60,
            max_cost_dollars=2.5, query_timeout_seconds=1.5, priority=5,
        ))
        assert status == 202, body


class TestBackpressure:
    def test_queue_full_sets_retry_after_header(self, tmp_path):
        background = make_server(tmp_path, max_queue_depth=0)
        client = ServeClient(background.start())
        try:
            status, body, headers = client.submit(job_payload())
            assert status == 429
            assert body["code"] == "queue_full"
            assert float(headers["retry-after"]) > 0
        finally:
            background.drain_and_stop()


class TestWorkerCrash:
    def test_killed_worker_requeues_and_another_resumes(self, tmp_path):
        kills = {"remaining": 1}
        lock = threading.Lock()

        def killing_runner(server):
            def factory(worker):
                def on_point(point):
                    with lock:
                        if (
                            point.startswith("checkpoint_save:")
                            and kills["remaining"] > 0
                        ):
                            kills["remaining"] -= 1
                            raise WorkerKilled(point)

                return JobRunner(
                    clock=server.core.clock, on_point=on_point
                )

            return factory

        background = make_server(tmp_path)
        background.server._runner_factory = killing_runner(background.server)
        client = ServeClient(background.start())
        try:
            _, body, _ = client.submit(job_payload())
            final = client.wait_for(body["job_id"], timeout_seconds=90.0)
            assert final["state"] == "completed"
            assert final["attempts"] == 2  # killed once, resumed once
            # Bit-identical to an uninterrupted run of the same request.
            baseline = JobRunner().run(
                Job(
                    job_id="baseline",
                    request=JobRequest.from_payload(job_payload()),
                    checkpoint_dir=str(tmp_path / "baseline"),
                )
            )
            assert (
                final["result"]["fingerprint"]
                == baseline.result["fingerprint"]
            )
        finally:
            background.drain_and_stop()


class TestDrain:
    def test_drain_rejects_new_submissions_with_503(self, service):
        client, _ = service
        summary = client.drain()
        assert summary["draining"] is True
        status, body, headers = client.submit(job_payload())
        assert status == 503
        assert body["code"] == "draining"
        # Deliberately no Retry-After: drain ends in process exit, not
        # freed capacity — the body says to retry after the restart.
        assert "retry-after" not in headers
        assert body["retry_after_seconds"] is None
        assert "restart" in body["reason"]
        assert client.health()["status"] == "draining"

    def test_graceful_stop_accounts_every_job(self, tmp_path):
        background = make_server(tmp_path, workers=1)
        client = ServeClient(background.start())
        for seed in range(3):
            client.submit(job_payload(seed=seed))
        summary = background.drain_and_stop()
        assert summary["draining"] is True
        core = background.server.core
        assert core.audit_lost_jobs() == []
        states = {j.state for j in core.jobs.values()}
        assert states <= {"completed", "checkpointed", "queued"}
