"""Frontend protocol tests: registry semantics, StudyClient, HTTP round-trips.

The registry/client layer must keep two promises at once: the *protocol*
one (create-or-attach by name, idempotent suggest, strict suggest→report
alternation, typed errors mapped onto HTTP codes) and the *numerical* one —
driving a study through the ask/tell surface, in-process or over the wire,
is bit-identical to ``CBOSearch.run``.  The HTTP cases run against a live
:class:`~repro.service.StudyFrontend` thread on a loopback port.
"""

import json
import urllib.error
import urllib.request

import pytest

from fixtures import (
    assert_results_identical,
    make_service_search,
    service_run_function,
)
from repro.core.journal import JournalBusyError
from repro.service import (
    CampaignRegistry,
    ElasticCampaignRunner,
    HTTPStudyClient,
    ProtocolError,
    RegistryError,
    StudyClient,
    StudyConflictError,
    StudyFrontend,
    UnknownStudyError,
    UnknownTemplateError,
)

TEMPLATES = {"service": lambda seed=0, **params: make_service_search(seed, **params)}
BUDGET = dict(max_time=600.0, max_evaluations=12)


def make_registry(**kwargs):
    return CampaignRegistry(TEMPLATES, **kwargs)


def solo_result(seed=0):
    return make_service_search(seed).run(**BUDGET)


def crash(registry):
    """What a killed registry process leaves: its journals, no live writer.

    The OS closes a dead process's descriptors, and with them its journal
    leases; nothing is checkpointed on the way down.
    """
    for name in registry.study_names():
        execution = registry.get(name).execution
        if execution is not None:
            execution.close_journal()


@pytest.fixture()
def frontend():
    with StudyFrontend(make_registry()) as server:
        yield server


def raw_post(url, body: bytes, content_type="application/json"):
    """POST raw bytes, returning (code, payload) without raising."""
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": content_type}, method="POST"
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestRegistrySemantics:
    def test_create_then_attach_by_name(self):
        registry = make_registry()
        record, created = registry.create_study("tune-1", seed=3, **BUDGET)
        assert created and not record.attached
        again, created_again = registry.create_study("tune-1")
        assert again is record
        assert not created_again

    def test_if_exists_raise_demands_a_fresh_name(self):
        registry = make_registry()
        registry.create_study("tune-1")
        with pytest.raises(StudyConflictError):
            registry.create_study("tune-1", if_exists="raise")

    def test_invalid_names_and_modes_are_rejected(self):
        registry = make_registry()
        for bad in ("", "no spaces", "no/slash", "x" * 129):
            with pytest.raises(RegistryError):
                registry.create_study(bad)
        with pytest.raises(RegistryError, match="mode"):
            registry.create_study("ok", mode="psychic")
        with pytest.raises(RegistryError, match="if_exists"):
            registry.create_study("ok", if_exists="explode")

    def test_unknown_template_is_typed(self):
        registry = make_registry()
        with pytest.raises(UnknownTemplateError):
            registry.create_study("tune-1", template="nope")
        two = CampaignRegistry({"a": TEMPLATES["service"], "b": TEMPLATES["service"]})
        with pytest.raises(UnknownTemplateError, match="required"):
            two.create_study("tune-1")  # ambiguous default

    def test_suggest_is_idempotent_until_reported(self):
        registry = make_registry()
        registry.create_study("tune-1", **BUDGET)
        first = registry.suggest("tune-1")
        second = registry.suggest("tune-1")
        assert first == second
        registry.report("tune-1", [50.0] * len(first))
        assert registry.suggest("tune-1") != first

    def test_report_protocol_violations(self):
        registry = make_registry()
        registry.create_study("tune-1", **BUDGET)
        batch = registry.suggest("tune-1")
        with pytest.raises(ProtocolError, match="runtimes"):
            registry.report("tune-1", [50.0] * (len(batch) + 1))
        registry.report("tune-1", [50.0] * len(batch))
        # Between report and the next suggest nothing is outstanding.
        with pytest.raises(ProtocolError, match="no suggested batch"):
            registry.report("tune-1", [50.0] * len(batch))

    def test_unknown_study_everywhere(self):
        registry = make_registry()
        for call in (
            registry.suggest,
            registry.status,
            registry.heartbeat,
            registry.result,
            lambda name: registry.report(name, [1.0]),
        ):
            with pytest.raises(UnknownStudyError):
                call("ghost")

    def test_stale_studies_uses_the_injected_clock(self):
        now = {"t": 0.0}
        registry = make_registry(clock=lambda: now["t"])
        registry.create_study("old", **BUDGET)
        now["t"] = 100.0
        registry.create_study("young", **BUDGET)
        assert registry.stale_studies(max_age=50.0) == ["old"]
        registry.heartbeat("old")
        assert registry.stale_studies(max_age=50.0) == []


class TestStudyClient:
    def test_run_is_bit_identical_to_solo(self):
        registry = make_registry()
        client = StudyClient(registry, "tune-1", seed=3, **BUDGET)
        assert client.created and not client.attached
        status = client.run(service_run_function)
        assert status["finished"]
        assert_results_identical(solo_result(3), client.result())

    def test_journal_attach_resumes_bit_identically(self, tmp_path):
        first = make_registry(root=tmp_path)
        client = StudyClient(first, "tune-1", seed=3, **BUDGET)
        for _ in range(3):
            batch = client.suggest()
            client.report([service_run_function(c) for c in batch])
        # A second process: fresh registry over the same journal root.
        crash(first)
        second = make_registry(root=tmp_path)
        resumed = StudyClient(second, "tune-1", seed=3, **BUDGET)
        assert not resumed.created
        assert resumed.attached
        resumed.run(service_run_function)
        assert_results_identical(solo_result(3), resumed.result())

    def test_managed_studies_reject_ask_tell_verbs(self):
        registry = make_registry()
        registry.create_study("svc", mode="managed", **BUDGET)
        with pytest.raises(ProtocolError, match="managed"):
            registry.suggest("svc")
        with pytest.raises(ProtocolError, match="managed"):
            registry.report("svc", [1.0])
        assert registry.status("svc")["mode"] == "managed"


class TestBatchedAskService:
    """The registry/frontend protocol must survive fleet-ask grouping.

    Managed studies admitted by the registry run through the elastic
    runner's batched ask; ask/tell studies re-derive suggestions after a
    crash.  Neither protocol promise may depend on ``batch_asks``.
    """

    def test_stale_studies_over_a_batched_managed_cohort(self):
        now = {"t": 0.0}
        # step_shards=1: the ask-fleet counter below assumes global groups.
        runner = ElasticCampaignRunner(batch_asks=True, step_shards=1)
        registry = make_registry(runner=runner, clock=lambda: now["t"])
        registry.create_study("a", mode="managed", **BUDGET)
        registry.create_study("b", mode="managed", seed=1, **BUDGET)
        for _ in range(4):
            runner.tick()
        # Service-side ticking is not client liveness: both studies go
        # stale despite the runner making progress on their campaigns.
        now["t"] = 100.0
        assert registry.stale_studies(max_age=50.0) == ["a", "b"]
        registry.heartbeat("a")
        assert registry.stale_studies(max_age=50.0) == ["b"]
        runner.run_until_complete()
        # Equal template spaces are built per study, so grouping had to
        # unify separately-constructed (equal, non-identical) spaces.
        assert runner.num_ask_fleet_passes > 0
        assert registry.status("a")["finished"]
        assert registry.status("b")["finished"]

    def test_suggest_after_crash_rederives_the_same_batch(self, tmp_path):
        first = make_registry(root=tmp_path)
        client = StudyClient(first, "tune-1", seed=3, **BUDGET)
        for _ in range(2):
            batch = client.suggest()
            client.report([service_run_function(c) for c in batch])
        pending = client.suggest()
        # Crash before the report: a fresh registry over the same journal
        # root must re-derive the identical outstanding batch.
        crash(first)
        second = make_registry(root=tmp_path)
        resumed = StudyClient(second, "tune-1", seed=3, **BUDGET)
        assert resumed.attached
        assert resumed.suggest() == pending
        status = resumed.run(service_run_function)
        assert status["finished"]
        assert_results_identical(solo_result(3), resumed.result())

    def test_http_suggest_after_crash_rederives(self, tmp_path):
        with StudyFrontend(make_registry(root=tmp_path)) as server:
            client = HTTPStudyClient(server.address, "tune-1", seed=3, **BUDGET)
            batch = client.suggest()
            client.report([service_run_function(c) for c in batch])
            pending = client.suggest()
        crash(server.registry)
        with StudyFrontend(make_registry(root=tmp_path)) as server:
            client = HTTPStudyClient(server.address, "tune-1", seed=3, **BUDGET)
            assert client.attached
            assert client.suggest() == pending
            status = client.run(service_run_function)
            assert status["finished"]
            assert_results_identical(
                solo_result(3), server.registry.result("tune-1")
            )


class TestHTTPFrontend:
    def test_create_is_201_then_attach_is_200(self, frontend):
        code, body = raw_post(
            frontend.address + "/studies",
            json.dumps({"name": "tune-1", "max_evaluations": 12}).encode(),
        )
        assert code == 201
        assert body["created"] and not body["attached"]
        code, body = raw_post(
            frontend.address + "/studies",
            json.dumps({"name": "tune-1"}).encode(),
        )
        assert code == 200
        assert not body["created"]

    def test_run_over_http_is_bit_identical(self, frontend):
        client = HTTPStudyClient(
            frontend.address, "tune-1", seed=3, **BUDGET
        )
        assert client.created
        status = client.run(service_run_function)
        assert status["finished"]
        assert status["num_evaluations"] == BUDGET["max_evaluations"]
        result = frontend.registry.result("tune-1")
        assert_results_identical(solo_result(3), result)

    def test_unknown_study_is_404(self, frontend):
        code, body = raw_post(frontend.address + "/studies/ghost/suggest", b"{}")
        assert code == 404
        assert "ghost" in body["error"]
        with pytest.raises(UnknownStudyError):
            HTTPStudyClient(frontend.address, "ghost", create=False).status()

    def test_unknown_routes_and_verbs_are_404(self, frontend):
        code, _ = raw_post(frontend.address + "/nope", b"{}")
        assert code == 404
        code, _ = raw_post(frontend.address + "/studies/x/y/z", b"{}")
        assert code == 404
        HTTPStudyClient(frontend.address, "tune-1", **BUDGET)
        code, body = raw_post(frontend.address + "/studies/tune-1/dance", b"{}")
        assert code == 404
        assert "verb" in body["error"]

    def test_malformed_payloads_are_400(self, frontend):
        url = frontend.address + "/studies"
        code, body = raw_post(url, b"{not json")
        assert code == 400
        assert "malformed" in body["error"]
        code, body = raw_post(url, b"[1, 2, 3]")  # JSON, but not an object
        assert code == 400
        code, body = raw_post(url, b"{}")  # missing the study name
        assert code == 400
        assert "name" in body["error"]

    def test_report_payload_must_carry_runtimes_list(self, frontend):
        HTTPStudyClient(frontend.address, "tune-1", **BUDGET)
        url = frontend.address + "/studies/tune-1/report"
        code, body = raw_post(url, json.dumps({"runtimes": 3.5}).encode())
        assert code == 400
        assert "runtimes" in body["error"]

    def test_protocol_violations_are_409(self, frontend):
        client = HTTPStudyClient(frontend.address, "tune-1", **BUDGET)
        batch = client.suggest()
        with pytest.raises(ProtocolError):
            client.report([50.0] * (len(batch) + 1))  # wrong batch size
        client.report([50.0] * len(batch))
        with pytest.raises(ProtocolError):
            client.report([50.0] * len(batch))  # nothing outstanding now

    def test_journal_held_by_another_writer_is_409(self, tmp_path):
        # Another registry process on the same root holds study tune-1.
        holder = make_registry(root=tmp_path)
        holder.create_study("tune-1", **BUDGET)
        with StudyFrontend(make_registry(root=tmp_path)) as server:
            code, body = raw_post(
                server.address + "/studies",
                json.dumps({"name": "tune-1", **BUDGET}).encode(),
            )
            assert code == 409
            assert body["type"] == "JournalBusyError"
            with pytest.raises(JournalBusyError, match="another writer"):
                HTTPStudyClient(server.address, "tune-1", **BUDGET)
            assert server.registry.study_names() == []
            # Once the holder lets go, the same request attaches.
            assert holder.evict("tune-1")
            client = HTTPStudyClient(server.address, "tune-1", **BUDGET)
            assert client.attached

    def test_status_listing_and_heartbeat(self, frontend):
        HTTPStudyClient(frontend.address, "a", **BUDGET)
        client_b = HTTPStudyClient(frontend.address, "b", seed=1, **BUDGET)
        with urllib.request.urlopen(frontend.address + "/studies") as response:
            listing = json.loads(response.read().decode("utf-8"))["studies"]
        assert [s["name"] for s in listing] == ["a", "b"]
        status = client_b.heartbeat()
        assert status["name"] == "b"
        assert status["seed"] == 1
        assert not status["finished"]
