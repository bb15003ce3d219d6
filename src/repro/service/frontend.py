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

    Unknown studies are 404, template/payload errors are 400, protocol
    violations and a study whose journal another writer holds
    (:class:`~repro.core.journal.JournalBusyError`) are 409.
    Floats cross the wire through ``json`` (repr-exact for float64), so an
    HTTP-driven campaign remains bit-identical to an in-process one.

:class:`HTTPStudyClient`
    The remote twin of :class:`StudyClient`, speaking the protocol above via
    ``urllib.request`` and raising the same registry exception types.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence

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
def _make_handler(registry: CampaignRegistry):
    class Handler(BaseHTTPRequestHandler):
        # The test/benchmark servers must not spam stderr per request.
        def log_message(self, *args):
            pass

        def _reply(self, code: int, payload: Dict) -> None:
            body = _dump(payload)
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, code: int, message: str) -> None:
            self._reply(code, {"error": message})

        def _read_json(self) -> Dict:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload must be a JSON object")
            return payload

        def _route(self) -> List[str]:
            return [part for part in self.path.split("?")[0].split("/") if part]

        def do_GET(self) -> None:
            parts = self._route()
            try:
                if parts == ["studies"]:
                    self._reply(200, {"studies": registry.statuses()})
                elif len(parts) == 2 and parts[0] == "studies":
                    self._reply(200, registry.status(parts[1]))
                else:
                    self._error(404, f"no such route: GET {self.path}")
            except UnknownStudyError as error:
                self._error(404, str(error))
            except RegistryError as error:
                self._error(400, str(error))

        def do_POST(self) -> None:
            parts = self._route()
            try:
                payload = self._read_json()
            except (ValueError, UnicodeDecodeError) as error:
                self._error(400, f"malformed JSON payload: {error}")
                return
            try:
                if parts == ["studies"]:
                    self._create(payload)
                elif len(parts) == 3 and parts[0] == "studies":
                    self._verb(parts[1], parts[2], payload)
                else:
                    self._error(404, f"no such route: POST {self.path}")
            except UnknownStudyError as error:
                self._error(404, str(error))
            except ProtocolError as error:
                self._error(409, str(error))
            except JournalBusyError as error:
                # Typed on the wire: the client re-raises it, not ProtocolError.
                self._reply(409, {"error": str(error), "type": "JournalBusyError"})
            except RegistryError as error:
                self._error(400, str(error))

        def _create(self, payload: Dict) -> None:
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
            self._reply(
                201 if created else 200,
                {
                    "created": created,
                    "attached": record.attached,
                    "status": registry.status(record.name),
                },
            )

        def _verb(self, name: str, verb: str, payload: Dict) -> None:
            if verb == "suggest":
                batch = registry.suggest(name)
                self._reply(
                    200, {"configurations": batch, "finished": batch is None}
                )
            elif verb == "report":
                runtimes = payload.get("runtimes")
                if not isinstance(runtimes, list):
                    raise RegistryError(
                        "report payload requires 'runtimes': [...]"
                    )
                self._reply(200, registry.report(name, runtimes))
            elif verb == "heartbeat":
                self._reply(200, registry.heartbeat(name))
            else:
                self._error(404, f"no such study verb: {verb}")

    return Handler


class StudyFrontend:
    """The registry's JSON-over-HTTP surface (stdlib ``http.server`` only).

    Binds a :class:`ThreadingHTTPServer` on ``host:port`` (port 0 picks a
    free one) and serves from a daemon thread between :meth:`start` and
    :meth:`stop`; also usable as a context manager.  Request handling is
    serialised by the registry's lock, so concurrent clients are safe.
    """

    def __init__(
        self,
        registry: CampaignRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry
        self.server = ThreadingHTTPServer((host, port), _make_handler(registry))
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
        if self._thread is not None:
            self.server.shutdown()
            self._thread.join()
            self._thread = None
        self.server.server_close()

    def __enter__(self) -> "StudyFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class HTTPStudyClient:
    """Remote :class:`StudyClient`: same API, spoken over the HTTP protocol.

    Raises the registry's own exception types on protocol failures
    (:class:`UnknownStudyError` for 404, :class:`ProtocolError` or
    :class:`~repro.core.journal.JournalBusyError` for 409,
    :class:`RegistryError` for 400), so client code is backend-agnostic.
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
        self.base_url = base_url.rstrip("/")
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
    def _request(self, method: str, path: str, payload: Optional[Dict]) -> Dict:
        request = urllib.request.Request(
            self.base_url + path,
            data=None if payload is None else _dump(payload),
            headers={"Content-Type": "application/json"},
            method=method,
        )
        try:
            with urllib.request.urlopen(request) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                body = json.loads(error.read().decode("utf-8"))
                message, kind = body["error"], body.get("type")
            except Exception:
                message, kind = str(error), None
            if error.code == 404:
                raise UnknownStudyError(message) from None
            if error.code == 409:
                if kind == "JournalBusyError":
                    raise JournalBusyError(message) from None
                raise ProtocolError(message) from None
            raise RegistryError(message) from None

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
