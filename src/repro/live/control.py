"""A small REST control plane for live clusters (stdlib only).

``python -m repro live serve`` starts this server.  It deliberately
uses :class:`http.server.ThreadingHTTPServer` — the container this
repository targets carries no FastAPI/uvicorn, and the surface is four
routes; a web framework would be the only third-party dependency in
the tree.

Routes (JSON in, JSON out):

``POST /clusters``
    Body: :class:`~repro.live.cluster.LiveClusterSpec` fields
    (``{"n": 3, "algorithm": "comm-efficient", "horizon": 3.0, ...}``).
    Spawns the cluster and starts its run on a worker thread.
    → ``{"id": "c0", "state": "running"}``.

``GET /clusters/<id>``
    → ``{"id", "state": "running" | "done" | "failed", "spec",
    "verdict"?}`` (verdict once done).

``POST /clusters/<id>/faults``
    Inject faults into a running cluster.  Body
    ``{"faults": "<repro string>"}``, the nemesis repro string a spec's
    ``faults`` takes (``crash(t=0.0,pid=2)``,
    ``pause(t=0.5,pid=1,dur=1.0)``,
    ``degrade(start=0.0,end=2.0,pairs=0>1,loss=0.5,delay=0.1)``, ...),
    its times offsets from the request.  The events run through the
    same actions as the spec's plan (:meth:`LiveCluster.inject`).
    → ``{"ok": true, "events": N}``; a malformed string is a 400.

``GET /clusters/<id>/report``
    → the merged ``repro-report/v1`` document (409 while running).

``DELETE /clusters/<id>``
    Kill every node and forget the cluster.

The server is a localhost lab tool: no auth, no TLS — bind it to
loopback (the default) and nowhere else.
"""

from __future__ import annotations

import json
import re
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.live.cluster import LiveCluster, LiveClusterSpec

__all__ = ["ControlPlane", "serve"]


class _ClusterHandle:
    """One managed cluster: the spec, the worker thread, the outcome."""

    def __init__(self, handle_id: str, spec: LiveClusterSpec) -> None:
        self.id = handle_id
        self.spec = spec
        self.rundir = tempfile.mkdtemp(prefix=f"repro-live-{handle_id}-")
        self.cluster = LiveCluster(spec, self.rundir)
        self.outcome = None
        self.error: str | None = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            self.outcome = self.cluster.run()
        except Exception as error:  # surfaced through GET, not a crash
            self.error = f"{type(error).__name__}: {error}"

    @property
    def state(self) -> str:
        if self.thread.is_alive():
            return "running"
        return "failed" if self.error is not None else "done"

    def status(self) -> dict[str, Any]:
        body: dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "spec": {"n": self.spec.n, "algorithm": self.spec.algorithm,
                     "horizon": self.spec.horizon,
                     "consensus": self.spec.consensus,
                     "faults": self.spec.faults},
            "rundir": self.rundir,
        }
        if self.error is not None:
            body["error"] = self.error
        if self.outcome is not None:
            body["verdict"] = self.outcome.verdict.to_json()
        return body

    def inject(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True,
                "events": self.cluster.inject(str(request["faults"]))}

    def destroy(self) -> None:
        # Full teardown, not a bare kill: SIGCONTs paused processes
        # (a SIGSTOPped child is killed but never reaped otherwise)
        # and waits on every child, so DELETE leaves no orphans.
        self.cluster.teardown()


class ControlPlane:
    """Registry of managed clusters behind the HTTP handler."""

    def __init__(self) -> None:
        self._clusters: dict[str, _ClusterHandle] = {}
        self._lock = threading.Lock()
        self._counter = 0

    def create(self, body: dict[str, Any]) -> _ClusterHandle:
        """Spawn a cluster from spec fields and start its run thread."""
        spec = LiveClusterSpec(**body)
        with self._lock:
            handle = _ClusterHandle(f"c{self._counter}", spec)
            self._counter += 1
            self._clusters[handle.id] = handle
        handle.thread.start()
        return handle

    def get(self, handle_id: str) -> _ClusterHandle | None:
        """The managed cluster with this id, or None."""
        return self._clusters.get(handle_id)

    def delete(self, handle_id: str) -> bool:
        """Kill and forget a cluster; False if the id is unknown."""
        with self._lock:
            handle = self._clusters.pop(handle_id, None)
        if handle is None:
            return False
        handle.destroy()
        return True


_ROUTE = re.compile(r"^/clusters/([A-Za-z0-9_-]+)(/faults|/report)?$")


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the :class:`ControlPlane` on the server."""

    def _reply(self, status: int, body: dict[str, Any]) -> None:
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length", "0"))
        if not length:
            return {}
        return json.loads(self.rfile.read(length))

    @property
    def plane(self) -> ControlPlane:
        return self.server.plane  # type: ignore[attr-defined]

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        try:
            if self.path == "/clusters":
                handle = self.plane.create(self._body())
                self._reply(201, handle.status())
                return
            match = _ROUTE.match(self.path)
            if match and match.group(2) == "/faults":
                handle = self.plane.get(match.group(1))
                if handle is None:
                    self._reply(404, {"error": "no such cluster"})
                elif handle.state != "running":
                    self._reply(409, {"error": f"cluster is {handle.state}"})
                else:
                    self._reply(200, handle.inject(self._body()))
                return
            self._reply(404, {"error": f"no route {self.path}"})
        except (ValueError, TypeError, KeyError) as error:
            self._reply(400, {"error": str(error)})

    def do_GET(self) -> None:  # noqa: N802
        match = _ROUTE.match(self.path)
        if not match:
            self._reply(404, {"error": f"no route {self.path}"})
            return
        handle = self.plane.get(match.group(1))
        if handle is None:
            self._reply(404, {"error": "no such cluster"})
            return
        if match.group(2) is None:
            self._reply(200, handle.status())
        elif match.group(2) == "/report":
            if handle.outcome is None:
                self._reply(409, {"error": f"cluster is {handle.state}"})
            else:
                self._reply(200, handle.outcome.document)
        else:
            self._reply(404, {"error": f"no route {self.path}"})

    def do_DELETE(self) -> None:  # noqa: N802
        match = _ROUTE.match(self.path)
        if match and match.group(2) is None:
            if self.plane.delete(match.group(1)):
                self._reply(200, {"ok": True})
            else:
                self._reply(404, {"error": "no such cluster"})
            return
        self._reply(404, {"error": f"no route {self.path}"})

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the CLI decides what to print, not every request


def serve(host: str = "127.0.0.1", port: int = 8642) -> ThreadingHTTPServer:
    """Build (but do not start) the control-plane HTTP server.

    Returns the server so callers choose between ``serve_forever()``
    (the CLI) and a background thread (tests).  The bound port is in
    ``server.server_address``.
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.plane = ControlPlane()  # type: ignore[attr-defined]
    return server
