"""Ask/tell front end for the campaign registry: in-process and over HTTP.

Three ways to drive a registered study:

:class:`StudyClient`
    The in-process API.  Constructing one is a create-or-attach on the
    registry; :meth:`~StudyClient.suggest` returns the next batch of
    configurations to evaluate, :meth:`~StudyClient.report` hands the
    measured runtimes back, and :meth:`~StudyClient.run` loops the two
    against a local run function until the budget is exhausted.  Driving a
    study this way is bit-identical to ``CBOSearch.run`` with the same
    parameters — the registry merely inverts control over who evaluates.

:class:`StudyFrontend`
    A thin JSON-over-HTTP surface on the stdlib ``http.server`` (no
    third-party dependencies), exposing the same verbs::

        POST /studies                        create-or-attach
        GET  /studies                        all study statuses
        GET  /studies/<name>                 one study's status
        POST /studies/<name>/suggest         next batch (idempotent)
        POST /studies/<name>/report          {"runtimes": [...]}
        POST /studies/<name>/heartbeat       refresh liveness

    Unknown studies are 404; template and payload errors are 400, among
    them a report runtime that is not a JSON number (``null``, a string, a
    bool, a list — NaN and ±Infinity are numbers and record a failed
    evaluation); protocol violations and a study whose journal another
    writer holds (:class:`~repro.core.journal.JournalBusyError`) are 409;
    any other exception raised while handling a request is 500 with
    ``{"error", "type"}``.  Floats cross the wire through ``json``
    (repr-exact for float64), so an HTTP-driven campaign remains
    bit-identical to an in-process one.

    The transport is HTTP/1.1 with keep-alive and ``TCP_NODELAY``: a
    connection serves request after request until the client closes it,
    sends ``Connection: close``, or leaves it idle for
    :data:`IDLE_TIMEOUT_S`.  Request bodies are guarded, since on a
    keep-alive connection an unread body would be parsed as the next
    request: a ``Content-Length`` that is not a non-negative integer, or
    any ``Transfer-Encoding``, is 400, and a body longer than
    :data:`MAX_BODY_BYTES` is 413 without being read; each of these replies
    closes the connection.  :meth:`StudyFrontend.stop` lets the requests in
    flight finish, closes every connection and joins the handler threads.

:class:`HTTPStudyClient`
    The remote twin of :class:`StudyClient`, speaking the protocol above via
    ``http.client`` and raising the same registry exception types.  Each
    thread keeps one persistent connection per server, shared by all its
    clients.  A request that fails on a *reused* connection with
    ``RemoteDisconnected``, ``ConnectionResetError`` or ``BrokenPipeError``
    before a status line is read is sent once more on a fresh connection;
    any other failure, and any failure on a fresh connection, propagates.
    The server answers every request it reads (500 for unexpected errors),
    so a connection closed without an answer means an idle close or a
    shutdown, and the single retry cannot apply a ``report`` twice.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.journal import JournalBusyError
from repro.core.space import Configuration
from repro.service.registry import (
    CampaignRegistry,
    ProtocolError,
    RegistryError,
    UnknownStudyError,
)

__all__ = ["StudyClient", "StudyFrontend", "HTTPStudyClient"]

#: Seconds the server waits on a connection's socket — for the next request
#: to arrive, or a reply to be taken — before closing it.  Read when each
#: connection is accepted.
IDLE_TIMEOUT_S = 30.0

#: Largest request body the server reads; a longer one is answered 413.
MAX_BODY_BYTES = 1 << 20


def _json_default(value):
    """Encode numpy scalars the way the journal does (repr-exact floats)."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")


def _dump(payload: Dict) -> bytes:
    return json.dumps(payload, default=_json_default).encode("utf-8")


class StudyClient:
    """In-process ask/tell handle on one registered study.

    Construction is create-or-attach: a new name starts a fresh campaign, an
    existing name (live, or journaled under the registry's root) attaches to
    it — :attr:`created` records which happened.  The client then alternates
    :meth:`suggest` and :meth:`report` until :meth:`suggest` returns None.
    """

    def __init__(
        self,
        registry: CampaignRegistry,
        study: str,
        template: Optional[str] = None,
        seed: int = 0,
        max_time: float = 3600.0,
        max_evaluations: Optional[int] = None,
        tenant: str = "default",
        params: Optional[Dict] = None,
    ):
        self.registry = registry
        self.study = study
        record, self.created = registry.create_study(
            study,
            template=template,
            seed=seed,
            max_time=max_time,
            max_evaluations=max_evaluations,
            tenant=tenant,
            params=params,
        )
        self.attached = record.attached

    def suggest(self) -> Optional[List[Configuration]]:
        """Next batch to evaluate (idempotent until reported; None = done)."""
        return self.registry.suggest(self.study)

    def report(self, runtimes: Sequence[float]) -> Dict:
        """Report the batch's measured runtimes; returns the study status."""
        return self.registry.report(self.study, runtimes)

    def heartbeat(self) -> Dict:
        """Tell the service this client is alive; returns the study status."""
        return self.registry.heartbeat(self.study)

    def status(self) -> Dict:
        """The study's status snapshot."""
        return self.registry.status(self.study)

    def result(self):
        """The study's :class:`~repro.core.search.SearchResult` so far."""
        return self.registry.result(self.study)

    def run(self, run_function: Callable[[Configuration], float]) -> Dict:
        """Drive the study to completion with a local run function.

        The suggest→evaluate→report loop — the client-side equivalent of
        ``CBOSearch.run`` (and bit-identical to it for equal parameters).
        """
        while True:
            batch = self.suggest()
            if batch is None:
                return self.status()
            self.report([run_function(config) for config in batch])


# --------------------------------------------------------------------- HTTP
class _BodyError(Exception):
    """A request body the server will not read: answer ``code``, then close."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _runtimes(payload: Dict) -> List[float]:
    """A report's runtimes, each a JSON number (a bool is not one)."""
    runtimes = payload.get("runtimes")
    if not isinstance(runtimes, list):
        raise RegistryError("report payload requires 'runtimes': [...]")
    values = []
    for index, value in enumerate(runtimes):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                values.append(float(value))
                continue
            except OverflowError:  # an integer beyond float range
                pass
        raise RegistryError(
            f"runtimes[{index}] is not a number in float range: {value!r}"
        )
    return values


def _error_body(error: Exception, typed: bool = False) -> bytes:
    payload = {"error": str(error)}
    if typed:
        payload["type"] = type(error).__name__
    return _dump(payload)


def _make_handler(registry: CampaignRegistry):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in two sends; with Nagle's algorithm the
        # body would wait for the client's delayed ACK (~40 ms a request).
        disable_nagle_algorithm = True

        def setup(self) -> None:
            self.timeout = IDLE_TIMEOUT_S  # the socket timeout, per connection
            super().setup()

        # The test/benchmark servers must not spam stderr per request.
        def log_message(self, *args):
            pass

        def _reply(self, code: int, body: bytes, close: bool = False) -> None:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> Optional[bytes]:
            """The request body; None if the client closed before sending it."""
            if "Transfer-Encoding" in self.headers:
                raise _BodyError(
                    400, "Transfer-Encoding is not accepted; send Content-Length"
                )
            lengths = self.headers.get_all("Content-Length") or ["0"]
            text = lengths[0].strip()
            if len(lengths) > 1 or not (text.isascii() and text.isdigit()):
                raise _BodyError(
                    400, f"invalid Content-Length: {', '.join(lengths)}"
                )
            length = int(text)
            if length > MAX_BODY_BYTES:
                raise _BodyError(
                    413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
                )
            body = self.rfile.read(length) if length else b""
            return body if len(body) == length else None

        def _route(self) -> List[str]:
            return [part for part in self.path.split("?")[0].split("/") if part]

        def do_GET(self) -> None:
            self._handle(self._get)

        def do_POST(self) -> None:
            self._handle(self._post)

        def _handle(self, route) -> None:
            """Read the body, run ``route(parts, body)``, answer its result."""
            try:
                body = self._read_body()
            except _BodyError as error:
                # Its body stays unread: close rather than parse it next.
                self._reply(error.code, _error_body(error), close=True)
                return
            if body is None:
                self.close_connection = True
                return
            try:
                code, payload = route(self._route(), body)
                reply = _dump(payload)
            except UnknownStudyError as error:
                code, reply = 404, _error_body(error)
            except ProtocolError as error:
                code, reply = 409, _error_body(error)
            except JournalBusyError as error:
                # Typed on the wire: the client re-raises it, not ProtocolError.
                code, reply = 409, _error_body(error, typed=True)
            except RegistryError as error:
                code, reply = 400, _error_body(error)
            except Exception as error:
                # Answered, so the client can tell it from a closed connection.
                self.server.handle_error(self.request, self.client_address)
                code, reply = 500, _error_body(error, typed=True)
            self._reply(code, reply)

        def _get(self, parts: List[str], body: bytes) -> Tuple[int, Dict]:
            if parts == ["studies"]:
                return 200, {"studies": registry.statuses()}
            if len(parts) == 2 and parts[0] == "studies":
                return 200, registry.status(parts[1])
            return 404, {"error": f"no such route: GET {self.path}"}

        def _post(self, parts: List[str], body: bytes) -> Tuple[int, Dict]:
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
                if not isinstance(payload, dict):
                    raise ValueError("payload must be a JSON object")
            except (ValueError, RecursionError) as error:
                return 400, {"error": f"malformed JSON payload: {error}"}
            if parts == ["studies"]:
                return self._create(payload)
            if len(parts) == 3 and parts[0] == "studies":
                return self._verb(parts[1], parts[2], payload)
            return 404, {"error": f"no such route: POST {self.path}"}

        def _create(self, payload: Dict) -> Tuple[int, Dict]:
            try:
                name = payload["name"]
            except KeyError:
                raise RegistryError("create payload requires 'name'")
            max_evaluations = payload.get("max_evaluations")
            record, created = registry.create_study(
                name,
                template=payload.get("template"),
                seed=int(payload.get("seed", 0)),
                max_time=float(payload.get("max_time", 3600.0)),
                max_evaluations=(
                    None if max_evaluations is None else int(max_evaluations)
                ),
                tenant=str(payload.get("tenant", "default")),
                mode=str(payload.get("mode", "ask_tell")),
                if_exists=str(payload.get("if_exists", "attach")),
                params=payload.get("params") or {},
            )
            return 201 if created else 200, {
                "created": created,
                "attached": record.attached,
                "status": registry.status(record.name),
            }

        def _verb(self, name: str, verb: str, payload: Dict) -> Tuple[int, Dict]:
            if verb == "suggest":
                batch = registry.suggest(name)
                return 200, {"configurations": batch, "finished": batch is None}
            if verb == "report":
                return 200, registry.report(name, _runtimes(payload))
            if verb == "heartbeat":
                return 200, registry.heartbeat(name)
            return 404, {"error": f"no such study verb: {verb}"}

    return Handler


class _Server(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` that can end its open keep-alive connections.

    Its handler threads are daemons, which ``server_close`` does not join,
    so the server keeps its own map of open sockets to handler threads.
    """

    def __init__(self, address, handler):
        self._open: Dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        with self._open_lock:
            self._open[request] = thread
        thread.start()

    def shutdown_request(self, request):
        # Forget the socket before it is closed, so close_connections never
        # touches a closed (or reused) descriptor.
        with self._open_lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut the read side of every open connection; join its handler.

        A handler waiting for the next request reads end-of-file and exits;
        one handling a request finishes it and sends the reply first.
        """
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            threads = list(self._open.values())
        for thread in threads:
            thread.join()


class StudyFrontend:
    """The registry's JSON-over-HTTP surface (stdlib ``http.server`` only).

    Binds a threading HTTP/1.1 server on ``host:port`` (port 0 picks a free
    one) and serves from a daemon thread between :meth:`start` and
    :meth:`stop`; also usable as a context manager.  Each open connection
    has its own handler thread.  Request handling is serialised by the
    registry's lock, so concurrent clients are safe.
    """

    def __init__(
        self,
        registry: CampaignRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry
        self.server = _Server((host, port), _make_handler(registry))
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        """The server's base URL (``http://host:port``)."""
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "StudyFrontend":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.server.serve_forever, daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close every connection, join the handler threads.

        Requests already being handled finish and are answered; a request
        sent afterwards on a connection opened before gets no answer.
        """
        if self._thread is not None:
            self.server.shutdown()
            self._thread.join()
            self._thread = None
        self.server.close_connections()
        self.server.server_close()

    def __enter__(self) -> "StudyFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _Connections(dict):
    """One thread's keep-alive connections, keyed by (host, port).

    Held in thread-local storage, which is dropped when the thread ends: the
    connections close then, and with them the server's handler threads.
    """

    def __del__(self):
        for connection in self.values():
            connection.close()


class _ThreadConnections(threading.local):
    def __init__(self):
        self.by_server = _Connections()


_CONNECTIONS = _ThreadConnections()

#: How a request sent on a connection the server has already closed fails
#: before any status line is read: the request was never handled.
_CLOSED_UNANSWERED = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


class HTTPStudyClient:
    """Remote :class:`StudyClient`: same API, spoken over the HTTP protocol.

    Raises the registry's own exception types on protocol failures
    (:class:`UnknownStudyError` for 404, :class:`ProtocolError` or
    :class:`~repro.core.journal.JournalBusyError` for 409,
    :class:`RegistryError` for 400, 413 and any 5xx), so client code is
    backend-agnostic.  Transport failures are :class:`OSError`.

    ``base_url`` must be an ``http://`` URL (anything else is a
    :class:`ValueError`).  Requests go over the calling thread's persistent
    connection to that server, opened on first use and shared by every
    client the thread drives; a client shared between threads is safe.
    Proxy environment variables (``http_proxy``, ``no_proxy``) are not
    consulted: the client always connects to the server directly.
    """

    def __init__(
        self,
        base_url: str,
        study: str,
        template: Optional[str] = None,
        seed: int = 0,
        max_time: float = 3600.0,
        max_evaluations: Optional[int] = None,
        tenant: str = "default",
        params: Optional[Dict] = None,
        create: bool = True,
    ):
        parts = urllib.parse.urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"HTTPStudyClient needs an http:// URL, got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self._server = (parts.hostname, parts.port or 80)
        self._prefix = parts.path.rstrip("/")
        self.study = study
        self.created = False
        self.attached = False
        if create:
            response = self._post(
                "/studies",
                {
                    "name": study,
                    "template": template,
                    "seed": seed,
                    "max_time": max_time,
                    "max_evaluations": max_evaluations,
                    "tenant": tenant,
                    "params": params or {},
                },
            )
            self.created = bool(response["created"])
            self.attached = bool(response["attached"])

    # ---------------------------------------------------------------- plumbing
    def _exchange(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, str, bytes]:
        """Send one request on this thread's connection; (status, reason, body)."""
        connections = _CONNECTIONS.by_server
        connection = connections.get(self._server)
        if connection is None:
            connection = http.client.HTTPConnection(*self._server)
            connections[self._server] = connection
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            while True:
                reused = connection.sock is not None
                try:
                    connection.request(method, self._prefix + path, body, headers)
                    response = connection.getresponse()
                    break
                except _CLOSED_UNANSWERED:
                    # Closed by the server while idle: retry once, fresh.
                    connection.close()
                    if not reused:
                        raise
            return response.status, response.reason, response.read()
        except BaseException as error:
            connection.close()  # never reuse a connection left mid-exchange
            if isinstance(error, OSError) or not isinstance(
                error, http.client.HTTPException
            ):
                raise
            # A malformed reply (BadStatusLine, IncompleteRead, ...) is a
            # transport failure too, and transport failures are OSErrors.
            raise ConnectionError(f"{method} {path}: {error!r}") from error

    def _request(self, method: str, path: str, payload: Optional[Dict]) -> Dict:
        body = None if payload is None else _dump(payload)
        status, reason, data = self._exchange(method, path, body)
        if 200 <= status < 300:
            return json.loads(data.decode("utf-8"))
        try:
            reply = json.loads(data.decode("utf-8"))
            message, kind = reply["error"], reply.get("type")
        except Exception:
            message, kind = f"HTTP Error {status}: {reason}", None
        if status == 404:
            raise UnknownStudyError(message)
        if status == 409:
            if kind == "JournalBusyError":
                raise JournalBusyError(message)
            raise ProtocolError(message)
        if status >= 500 and kind is not None:
            message = f"{kind}: {message}"
        raise RegistryError(message)

    def _post(self, path: str, payload: Dict) -> Dict:
        return self._request("POST", path, payload)

    def _get(self, path: str) -> Dict:
        return self._request("GET", path, None)

    # --------------------------------------------------------------- protocol
    def suggest(self) -> Optional[List[Configuration]]:
        """Next batch to evaluate (idempotent until reported; None = done)."""
        response = self._post(f"/studies/{self.study}/suggest", {})
        return response["configurations"]

    def report(self, runtimes: Sequence[float]) -> Dict:
        """Report the batch's measured runtimes; returns the study status."""
        return self._post(
            f"/studies/{self.study}/report", {"runtimes": list(runtimes)}
        )

    def heartbeat(self) -> Dict:
        """Tell the service this client is alive; returns the study status."""
        return self._post(f"/studies/{self.study}/heartbeat", {})

    def status(self) -> Dict:
        """The study's status snapshot."""
        return self._get(f"/studies/{self.study}")

    def run(self, run_function: Callable[[Configuration], float]) -> Dict:
        """Drive the study to completion with a local run function."""
        while True:
            batch = self.suggest()
            if batch is None:
                return self.status()
            self.report([run_function(config) for config in batch])
