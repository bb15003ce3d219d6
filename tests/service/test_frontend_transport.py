"""Transport tests for the study service: keep-alive, retry, shutdown, guards.

``StudyFrontend`` speaks HTTP/1.1 with keep-alive, and ``HTTPStudyClient``
keeps one connection per thread and server.  These tests hold the transport
to its promises: one connection serves many requests without a Nagle stall;
a request that meets a connection the server closed while idle is retried
once on a fresh one, so a ``report`` is never applied twice; ``stop()``
closes every open connection and joins its handler threads; a silent client
is dropped at the idle timeout; request bodies the server will not read are
answered and the connection closed; an unexpected handler error is a 500
that leaves the connection usable.
"""

import http.client
import json
import socket
import sys
import threading
import time

import pytest

import repro.service.frontend as frontend_module
from fixtures import assert_results_identical, service_run_function
from repro.service import HTTPStudyClient, RegistryError, StudyFrontend
from test_frontend import BUDGET, make_registry, raw_post, solo_result


@pytest.fixture()
def frontend():
    with StudyFrontend(make_registry()) as server:
        yield server


def count_accepts(monkeypatch, frontend) -> list:
    """Record every connection the server accepts from now on."""
    server = frontend.server
    get_request = server.get_request

    def counting():
        request = get_request()
        accepted.append(request[1])
        return request

    accepted = []
    monkeypatch.setattr(server, "get_request", counting)
    return accepted


def raw_exchange(frontend, request: bytes) -> bytes:
    """Send ``request`` on a new socket; all it receives until the server closes."""
    with socket.create_connection(frontend.server.server_address[:2], timeout=5) as raw:
        raw.sendall(request)
        received = []
        while chunk := raw.recv(65536):
            received.append(chunk)
    return b"".join(received)


def status_and_payload(reply: bytes):
    """The status code and JSON body of one raw HTTP reply."""
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


def assert_serving(frontend) -> None:
    """A request on a new connection is answered."""
    connection = http.client.HTTPConnection(*frontend.server.server_address[:2])
    try:
        connection.request("GET", "/studies")
        assert connection.getresponse().status == 200
    finally:
        connection.close()


class TestKeepAlive:
    def test_one_client_uses_one_connection(self, frontend, monkeypatch):
        accepted = count_accepts(monkeypatch, frontend)
        client = HTTPStudyClient(frontend.address, "tune-1", **BUDGET)
        for _ in range(19):
            client.heartbeat()
        assert len(accepted) == 1

    def test_no_nagle_stall_between_requests(self, frontend, monkeypatch):
        accepted = count_accepts(monkeypatch, frontend)
        client = HTTPStudyClient(frontend.address, "tune-1", **BUDGET)
        start = time.perf_counter()
        for _ in range(50):
            client.heartbeat()
        # A delayed-ACK stall costs ~40 ms a request: over 2 s for fifty.
        assert time.perf_counter() - start < 1.0
        assert len(accepted) == 1

    def test_report_after_idle_close_is_retried_once(self, monkeypatch):
        monkeypatch.setattr(frontend_module, "IDLE_TIMEOUT_S", 0.05)
        with StudyFrontend(make_registry()) as server:
            accepted = count_accepts(monkeypatch, server)
            client = HTTPStudyClient(server.address, "tune-1", seed=3, **BUDGET)
            batches = 0
            while (batch := client.suggest()) is not None:
                time.sleep(0.15)  # evaluate past the server's idle timeout
                client.report([service_run_function(c) for c in batch])
                batches += 1
            status = client.status()
            result = server.registry.result("tune-1")
        assert status["finished"]
        # Each report met a closed connection and went out again on a new
        # one, and none was applied twice.
        assert len(accepted) >= 1 + batches
        assert status["num_reported"] == batches
        assert_results_identical(solo_result(3), result)

    def test_threads_sharing_a_client_use_their_own_connections(
        self, frontend, monkeypatch
    ):
        accepted = count_accepts(monkeypatch, frontend)
        client = HTTPStudyClient(frontend.address, "tune-1", **BUDGET)
        names = []

        def heartbeats():
            for _ in range(25):
                names.append(client.heartbeat()["name"])

        threads = [threading.Thread(target=heartbeats) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Interleaved exchanges on one shared connection would fail or
        # cross their replies; each thread opened one connection of its own.
        assert names == ["tune-1"] * 200
        assert len(accepted) == 1 + len(threads)


class TestShutdown:
    def test_stop_closes_open_connections(self, monkeypatch):
        server = StudyFrontend(make_registry()).start()
        client = HTTPStudyClient(server.address, "tune-1", **BUDGET)
        handlers, calls = [], []
        heartbeat = server.registry.heartbeat

        def recording(name):
            handlers.append(threading.current_thread())
            calls.append(name)
            return heartbeat(name)

        monkeypatch.setattr(server.registry, "heartbeat", recording)
        client.heartbeat()
        stopping = threading.Thread(target=server.stop)
        stopping.start()
        # stop() does not wait out the idle timeout, and returns only once
        # the connection's handler thread is gone.
        stopping.join(timeout=10.0)
        assert not stopping.is_alive()
        assert not handlers[0].is_alive()
        with pytest.raises(OSError):
            client.heartbeat()
        assert calls == ["tune-1"]

    def test_silent_client_is_closed_at_the_idle_timeout(self, monkeypatch):
        monkeypatch.setattr(frontend_module, "IDLE_TIMEOUT_S", 0.1)
        with StudyFrontend(make_registry()) as server:
            start = time.perf_counter()
            assert raw_exchange(server, b"POST /stud") == b""
            elapsed = time.perf_counter() - start
        assert elapsed < 1.0


class TestBodyGuards:
    """Bodies the server will not read: answered, then the connection closed."""

    def post_head(self, frontend, *headers: str) -> bytes:
        lines = ["POST /studies HTTP/1.1", "Host: test", *headers, "", ""]
        return raw_exchange(frontend, "\r\n".join(lines).encode())

    @pytest.mark.parametrize(
        "lengths", [["-1"], ["abc"], ["1.5"], ["2", "3"]], ids=lambda v: ",".join(v)
    )
    def test_bad_content_length_is_400(self, frontend, lengths):
        headers = [f"Content-Length: {length}" for length in lengths]
        code, body = status_and_payload(self.post_head(frontend, *headers))
        assert code == 400
        assert "Content-Length" in body["error"]
        assert_serving(frontend)

    def test_transfer_encoding_is_400(self, frontend):
        code, body = status_and_payload(
            self.post_head(frontend, "Transfer-Encoding: chunked")
        )
        assert code == 400
        assert "Transfer-Encoding" in body["error"]
        assert_serving(frontend)

    def test_oversized_body_is_413_unread(self, frontend):
        # Only the head is sent: the answer cannot wait for the body.
        length = frontend_module.MAX_BODY_BYTES + 1
        reply = self.post_head(frontend, f"Content-Length: {length}")
        code, body = status_and_payload(reply)
        assert code == 413
        assert str(length) in body["error"]
        assert_serving(frontend)


class TestServerErrors:
    def test_unexpected_error_is_500_and_keeps_the_connection(
        self, frontend, monkeypatch
    ):
        accepted = count_accepts(monkeypatch, frontend)
        client = HTTPStudyClient(frontend.address, "tune-1", **BUDGET)

        def broken(name):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(frontend.registry, "heartbeat", broken)
        with pytest.raises(RegistryError, match="ZeroDivisionError: boom"):
            client.heartbeat()
        assert client.status()["name"] == "tune-1"
        assert len(accepted) == 1
        code, body = raw_post(frontend.address + "/studies/tune-1/heartbeat", b"{}")
        assert code == 500
        assert body == {"error": "boom", "type": "ZeroDivisionError"}


class TestClientURL:
    @pytest.mark.parametrize("url", ["https://127.0.0.1:1", "127.0.0.1:1", "ftp://x"])
    def test_only_http_urls(self, url):
        with pytest.raises(ValueError, match="http://"):
            HTTPStudyClient(url, "tune-1")
