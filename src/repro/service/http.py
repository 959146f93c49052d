"""Thread-safe HTTP query API over a measurement daemon.

Stdlib-only (``ThreadingHTTPServer``): every request runs in its own
thread, so readers can hammer the API while the ingest thread rotates
epochs underneath.  No request waits on the ingest lock except a live
read's once-per-epoch replica bootstrap: staleness and ``/epochs`` read
the daemon's published read-state record, ``/metrics`` snapshots the
ingest registry under that registry's own short lock, one-epoch
planners sit in a cache with its own lock, a range sums frozen epoch
tables under the store's locks, and request counters go to a
reader-side registry.

Endpoints (all GET, JSON responses):

* ``/epochs`` — daemon status: live-epoch version, retained epoch
  metadata, total packets.
* ``/query?sql=...&epoch=live|K|LO-HI`` — the §4.3 SQL dialect via the
  columnar executor, against the live view (default), one frozen
  epoch, or the sum of an epoch range (time-travel).
* ``/topk?key=SrcIP[/24][,DstIP...]&k=10&epoch=...`` — top-k flows on
  a partial key.
* ``/metrics`` — the daemon's ``repro.obs.metrics/v1`` snapshot
  (including the live replica's ``slim.*`` instruments and one
  ``service.http.requests.<route>.<status>`` counter per outcome).

Live queries have one read path: the incrementally synced replica,
which sums the live shards (see docs/service.md).  The ``view=slim``
and ``view=fat`` selectors are still accepted on live queries, and
both are answered by the replica; the descriptor's ``"view"`` names
the path that answered, always ``"slim"``.  Any other value, or
``view`` with a frozen or range ``epoch=``, is a 400.

Multi-tenant daemons additionally accept ``tenant=NAME`` on ``/query``
and ``/topk``: the selector resolves against that tenant's isolated
daemon (its own sketches and epochs) and the response descriptor
carries the tenant name; an unknown tenant is a 404.  ``/metrics``
folds per-tenant ``control.tenant.<name>.*`` rows into the parent
snapshot.

Every data response carries the ``epoch`` descriptor its rows were
computed against — e.g. ``{"kind": "live", "epoch": E, "packets": P,
"view": "slim", "staleness": {"packets_behind": B}}`` — which is what
the soak suite checks for torn reads.  ``packets_behind`` counts every
packet the daemon accepted beyond the answer's covered prefix
(buffered sub-chunk arrivals included), so the reported staleness is
never an undercount.  Client errors (bad SQL, unknown field, malformed
params) are 400s; unknown/evicted epochs are 404s; only genuine bugs
surface as 500s (the soak asserts none occur).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core.sql import SqlError, run_query
from repro.flowkeys.key import PartialKeySpec
from repro.service.daemon import MeasurementDaemon, ServiceError

#: Paths counted under their own name; anything else counts as "other".
ROUTES = ("epochs", "metrics", "query", "topk")


def parse_partial(key_spec, text: str) -> PartialKeySpec:
    """``Field[/prefix][,Field[/prefix]...]`` → a partial key spec."""
    parts = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise ValueError("empty field in key expression")
        if "/" in item:
            name, prefix = item.split("/", 1)
            parts.append((name, int(prefix)))
        else:
            parts.append(item)
    try:
        return key_spec.partial(*parts)
    except KeyError as exc:  # unknown field is a client error, not a 404
        raise ValueError(f"unknown key field: {exc}") from exc


def _parse_epoch_selector(text: Optional[str]):
    """``live`` (default) | ``K`` | ``LO-HI`` → a typed selector."""
    if text is None or text == "live":
        return "live"
    if "-" in text:
        lo_text, hi_text = text.split("-", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo > hi:
            raise ValueError(f"empty epoch range {text!r}")
        return (lo, hi)
    return int(text)


class _Handler(BaseHTTPRequestHandler):
    """One request per thread; all state lives on ``server.daemon``."""

    protocol_version = "HTTP/1.1"

    # TCP_NODELAY: without it the body, written behind the headers,
    # waits (Nagle) for the client's delayed ACK of the header segment,
    # about 40 ms per keep-alive request.
    disable_nagle_algorithm = True

    # A buffered writer: the headers and the body leave in one send when
    # handle_one_request() flushes, not in two.
    wbufsize = -1

    # -- plumbing ------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep test/CI output clean

    def _send_json(self, status: int, payload: dict) -> None:
        self.server.daemon.count_request(self._route, status)
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    # -- endpoint dispatch ---------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        route = url.path.strip("/")
        self._route = route if route in ROUTES else "other"
        params = {
            key: values[-1] for key, values in parse_qs(url.query).items()
        }
        try:
            if url.path == "/epochs":
                self._send_json(200, self.server.daemon.status())
            elif url.path == "/metrics":
                self._send_json(200, self.server.daemon.metrics_snapshot())
            elif url.path == "/query":
                self._handle_query(params)
            elif url.path == "/topk":
                self._handle_topk(params)
            else:
                self._error(404, f"unknown path {url.path!r}")
        except (SqlError, ValueError) as exc:
            self._error(400, str(exc))
        except KeyError as exc:
            self._error(404, str(exc))
        except ServiceError as exc:
            self._error(409, str(exc))
        except BrokenPipeError:
            pass  # client went away mid-response
        except Exception as exc:  # pragma: no cover - soak asserts none
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _resolve(self, params) -> Tuple[dict, "object"]:
        """Epoch (and tenant) selector → ``(descriptor, planner)``."""
        daemon: MeasurementDaemon = self.server.daemon
        tenant = params.get("tenant")
        if tenant:
            # Unknown tenant -> KeyError -> 404, same as unknown epoch.
            daemon = daemon.tenant_daemon(tenant)
        selector = _parse_epoch_selector(params.get("epoch"))
        view = params.get("view")
        if view is not None and view not in ("slim", "fat"):
            raise ValueError(
                f"unknown view {view!r}; choose 'slim' or 'fat'"
            )
        if selector == "live":
            (epoch, packets), planner = daemon.live_planner()
            descriptor = {
                "kind": "live",
                "epoch": epoch,
                "packets": packets,
                "view": "slim",
                "staleness": {
                    "packets_behind": daemon.packets_behind(epoch, packets)
                },
            }
            if tenant:
                descriptor["tenant"] = tenant
            return descriptor, planner
        if view is not None:
            raise ValueError("'view' only applies to the live epoch")
        if isinstance(selector, tuple):
            lo, hi = selector
            planner = daemon.range_planner(lo, hi)
            tail = daemon.store.get(hi)
            descriptor = {
                "kind": "range",
                "lo": lo,
                "hi": hi,
                "staleness": {
                    "packets_behind": daemon.packets_behind(
                        tail.epoch, tail.packets
                    )
                },
            }
            if tenant:
                descriptor["tenant"] = tenant
            return descriptor, planner
        snap = daemon.store.get(selector)
        planner = daemon.epoch_planner(selector)
        descriptor = {
            "kind": "frozen",
            "epoch": snap.epoch,
            "packets": snap.packets,
            "start_seq": snap.start_seq,
            "staleness": {
                "packets_behind": daemon.packets_behind(
                    snap.epoch, snap.packets
                )
            },
        }
        if tenant:
            descriptor["tenant"] = tenant
        return descriptor, planner

    def _handle_query(self, params) -> None:
        sql = params.get("sql")
        if not sql:
            raise ValueError("missing 'sql' parameter")
        start = time.perf_counter()
        descriptor, planner = self._resolve(params)
        rows = run_query(sql, planner=planner)
        self.server.daemon.observe_query(time.perf_counter() - start)
        self._send_json(
            200,
            {
                "epoch": descriptor,
                "rows": [[key, value] for key, value in rows],
            },
        )

    def _handle_topk(self, params) -> None:
        key_text = params.get("key")
        if not key_text:
            raise ValueError("missing 'key' parameter")
        k = int(params.get("k", "10"))
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # Validate before resolving, so a bad key costs no range sum.
        partial = parse_partial(self.server.daemon.config.key_spec, key_text)
        start = time.perf_counter()
        descriptor, planner = self._resolve(params)
        rows = planner.table(partial).top_k(k)
        self.server.daemon.observe_query(time.perf_counter() - start)
        self._send_json(
            200,
            {
                "epoch": descriptor,
                "key": partial.name,
                "rows": [[key, value] for key, value in rows],
            },
        )


class ServiceServer:
    """Background HTTP server bound to one daemon.

    Args:
        daemon: The measurement daemon to serve.
        host: Bind address (default loopback).
        port: TCP port; 0 picks an ephemeral port (read ``.port``).
    """

    def __init__(
        self,
        daemon: MeasurementDaemon,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.daemon = daemon
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.daemon = daemon  # handler state
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting requests and join the serving thread."""
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
