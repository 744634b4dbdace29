"""HTTP plumbing of the trace service: a route table on a router.

:class:`Router` is stdlib-only: a ``ThreadingHTTPServer`` on a daemon
thread, ``port``/``url``/``stop``/``wait`` and the context manager, and
per request the route lookup, a body read in bounded pieces under a
per-request deadline, and the error answers — an :class:`HttpError`
gets its status and a JSON ``{"error": ...}`` body, an unknown route a
404, anything else a logged 500.  A server is a subclass that supplies
its route table; :class:`~repro.service.daemon.TraceService` is the one
here.
"""

from __future__ import annotations

import io
import json
import logging
import socket
import threading
import time
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple
from urllib.parse import unquote

from repro.errors import ReproError

log = logging.getLogger("repro.service.http")

#: content type Prometheus scrapers expect
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: content type of the plain-text answers (indexes, reports)
TEXT_CONTENT_TYPE = "text/plain; charset=utf-8"

#: a request body is read in pieces of at most this many bytes, so a
#: declared Content-Length is never allocated up front
_BODY_PIECE = 1 << 20

#: seconds a whole request (line, headers, body) may take to arrive, or
#: a response write may block, before it is answered 408 or dropped, so
#: a client that stalls or trickles cannot hold a handler thread for good
_REQUEST_TIMEOUT_S = 30.0


class HttpError(ReproError):
    """A request failure answered with status ``code`` and a JSON
    ``{"error": message}`` body."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class Reply(NamedTuple):
    """One answer, and what to run once it is sent."""

    status: int
    content_type: str
    body: str
    after: Callable[[], None] | None = None


def json_reply(payload, status: int = 200, after=None) -> Reply:
    """``payload`` as a JSON answer."""
    return Reply(status, "application/json", json.dumps(payload) + "\n", after)


class ReusableThreadingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with explicit socket hygiene.

    ``allow_reuse_address`` sets ``SO_REUSEADDR`` before bind, so a
    freshly stopped server's port can be rebound immediately instead of
    lingering in TIME_WAIT — CI smoke jobs restart servers on the same
    port back to back.  Handler threads are daemonic so a hung client
    cannot block interpreter exit.  Bind port 0 to let the OS pick an
    ephemeral port; ``server_address[1]`` reports the bound choice.
    """

    allow_reuse_address = True
    daemon_threads = True

    #: the route table requests are answered from (see :class:`Router`)
    routes: dict


class _DeadlineSocketIO(socket.SocketIO):
    """A handler's socket reader whose every ``recv`` waits at most until
    ``deadline`` (``time.monotonic``), however the bytes trickle in."""

    deadline = 0.0

    def readinto(self, buf) -> int:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request deadline passed")
        self._sock.settimeout(left)
        return super().readinto(buf)


class _Handler(BaseHTTPRequestHandler):
    """Answers a request from its server's route table.

    A route function is called with this handler: ``arg`` is the
    percent-decoded path after a prefix route, ``query`` the raw query
    string, and :meth:`body` reads the request body.  A body still short
    ``timeout`` seconds into its request is answered 408; ``http.server``
    closes a connection whose request line or headers are.
    """

    server: ReusableThreadingHTTPServer
    arg = query = ""
    #: the per-request read deadline, and the socket timeout of writes
    timeout = _REQUEST_TIMEOUT_S

    def setup(self) -> None:
        super().setup()
        self.rfile.close()  # the socket stays open for the new reader
        self.rfile = io.BufferedReader(_DeadlineSocketIO(self.connection, "rb"))

    def handle_one_request(self) -> None:
        self.rfile.raw.deadline = time.monotonic() + self.timeout
        super().handle_one_request()

    def log_message(self, fmt, *args):  # route into our logger
        log.debug("%s %s", self.address_string(), fmt % args)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._answer("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._answer("POST")

    def _answer(self, method: str) -> None:
        path, _, self.query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        try:
            reply = self._route(method, path)(self)
        except HttpError as exc:
            reply = json_reply({"error": str(exc)}, exc.code)
        except Exception as exc:
            log.warning("%s %s failed", method, path, exc_info=True)
            reply = json_reply({"error": f"internal error: {exc}"}, 500)
        data = reply.body.encode("utf-8")
        self.connection.settimeout(self.timeout)
        try:
            self.send_response(reply.status)
            self.send_header("Content-Type", reply.content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (ConnectionError, TimeoutError):  # client gone or stalled
            return
        if reply.after is not None:
            reply.after()

    def _route(self, method: str, path: str) -> Callable:
        table = self.server.routes
        if (method, path) in table:
            return table[method, path]
        for (m, prefix), fn in table.items():
            if (m == method and prefix != "/" and prefix.endswith("/")
                    and path.startswith(prefix)):
                self.arg = unquote(path[len(prefix):])
                return fn
        raise HttpError(404, f"no such route {path}")

    def body(self) -> bytes:
        """The request body, up to its ``Content-Length`` (none: empty)."""
        text = self.headers.get("Content-Length", "0").strip()
        if not (text.isascii() and text.isdigit()):
            raise HttpError(400, f"bad Content-Length {text!r}: not a "
                                 f"non-negative decimal integer")
        left, pieces = int(text), []
        while left > 0:
            try:
                # read1 returns what has arrived, so a timeout below
                # names exactly the bytes still missing
                piece = self.rfile.read1(min(left, _BODY_PIECE))
            except TimeoutError:
                raise HttpError(408, f"body timed out {left} bytes short "
                                     f"of its Content-Length {text}") from None
            if not piece:
                raise HttpError(400, f"body ended {left} bytes short of "
                                     f"its Content-Length {text}")
            pieces.append(piece)
            left -= len(piece)
        return b"".join(pieces)


class Router:
    """Serves a route table over HTTP from a daemon thread.

    A subclass implements :meth:`routes`: ``(method, path)`` to a
    function of the request handler returning a :class:`Reply`.  A path
    other than ``/`` that ends in ``/`` is a prefix route, answering
    every path under it.
    """

    #: names the serving thread
    thread_name = "repro-http"

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._requested_port = port
        self._httpd: ReusableThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        # _stopping guards reentry; _stopped is set once stop (and its
        # drain) has *finished*, which is what wait() blocks on
        self._stop_lock = threading.Lock()
        self._stopping = False
        self._stopped = threading.Event()

    def routes(self) -> dict:
        """The route table (see the class docstring)."""
        raise NotImplementedError

    def start(self):
        """Bind and begin serving on a daemon thread (idempotent)."""
        if self._httpd is not None:
            return self
        self._httpd = ReusableThreadingHTTPServer(
            (self._host, self._requested_port), _Handler
        )
        self._httpd.routes = self.routes()
        self._stopping = False
        self._stopped.clear()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        log.info("%s serving at %s", self.thread_name, self.url)
        return self

    @property
    def port(self) -> int:
        """The bound port (resolves 0 to the ephemeral pick)."""
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def stop(self) -> None:
        """Stop serving, join the thread and run :meth:`_drain`, once;
        then :meth:`wait` returns."""
        with self._stop_lock:
            if self._stopping:
                return
            self._stopping = True
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self._drain()
        self._stopped.set()

    def _drain(self) -> None:
        """Work a subclass finishes once serving has stopped."""

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server stops; False if ``timeout`` ran out."""
        return self._stopped.wait(timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

