"""HTTP load generator for the ledger: one keep-alive connection.

Runs as its own process so the client's parsing and scheduling never
share an interpreter lock with the daemon under test.  Standard library
only: it reads one JSON job on stdin and writes one JSON result on
stdout, then exits.

Job fields:

* ``host``, ``port`` — the daemon's HTTP address.
* ``mode`` — ``"open"``: request *i* is due at ``start_at + i / rate``
  until ``seconds`` have passed, whatever the server does (independent
  users); ``"closed"``: each of ``requests`` is sent once, the next
  only after the previous reply (a waiting caller).
* ``requests`` — ``{"path": ..., "mass": bool, "filtered": bool}``
  objects, used round-robin in open mode.  A path may hold ``{newest}``,
  replaced by the newest closed epoch id seen in any ``/epochs`` reply
  so far.  ``mass`` asks for the exact-mass check: the rows' values must
  sum to the answer's ``packets``.  ``filtered`` marks a query with a
  WHERE clause, whose answer may rightly have no rows.
* ``start_at`` — ``time.perf_counter()`` value to start at.  On Linux
  that clock is ``CLOCK_MONOTONIC``, shared by every process, so the
  daemon's process and this one agree on it.
* ``trace`` — send an ``X-Ledger-Span`` header with each request's
  span id so the daemon-side handler span can name it as its parent.
* ``span_base`` — span id of request 0; ids stay unique across processes.

Result: ``samples`` rows ``[request index, due, sent, done, status,
ok]`` (times on the shared clock), ``spans`` rows ``[id, sent, done]``
when tracing, and the first few check failures in ``errors``.  Latency
is ``done - due``: in an open loop a slow reply delays the later sends,
and timing from the due time counts that wait.

Each request turns on ``TCP_QUICKACK`` (Linux) before reading the reply,
so this client acknowledges at once.  The daemon writes a reply's
headers and body in two sends; with the client's delayed ACK, Nagle's
algorithm on the server holds the body for ~40 ms on every back-to-back
keep-alive request, and that stall, not the query, would set the
latency (README.md, "Findings").
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import time

SPAN_HEADER = "X-Ledger-Span"
TIMEOUT_S = 10.0
MAX_ERRORS = 20
QUICKACK = getattr(socket, "TCP_QUICKACK", None)


def check_reply(path: str, status: int, body: bytes, request: dict):
    """``(ok, detail, payload)`` for one reply; *payload* is the parsed JSON."""
    if status != 200:
        return False, f"{path}: HTTP {status} {body[:200]!r}", None
    try:
        payload = json.loads(body)
    except ValueError as exc:
        return False, f"{path}: bad JSON ({exc})", None
    if path.startswith("/epochs"):
        if not payload.get("epochs"):
            return False, f"{path}: no closed epochs listed", payload
        return True, "", payload
    descriptor = payload.get("epoch", {})
    behind = descriptor.get("staleness", {}).get("packets_behind")
    if behind is None or behind < 0:
        return False, f"{path}: packets_behind {behind!r}", payload
    rows = payload.get("rows")
    # A live view right after a rotation covers no packets yet, and a
    # WHERE may match no recorded key; only then may an answer be empty.
    if not rows and descriptor.get("packets") != 0 and not request.get("filtered"):
        return False, f"{path}: empty rows over {descriptor}", payload
    if request.get("mass"):
        total = sum(value for _key, value in rows)
        if total != descriptor.get("packets"):
            return (
                False,
                f"{path}: rows sum to {total}, epoch holds "
                f"{descriptor.get('packets')} packets",
                payload,
            )
    return True, "", payload


def run(job: dict) -> dict:
    requests = job["requests"]
    trace = bool(job.get("trace"))
    base = int(job.get("span_base", 1))
    start = float(job.get("start_at", time.perf_counter()))
    if job["mode"] == "open":
        interval = 1.0 / float(job["rate"])
        count = int(float(job["seconds"]) / interval)
        schedule = [(i, start + i * interval) for i in range(count)]
    else:
        schedule = [(i, None) for i in range(len(requests))]
    newest = 0
    samples, spans, errors = [], [], []

    def connect():
        return http.client.HTTPConnection(job["host"], job["port"], timeout=TIMEOUT_S)

    delay = start - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    conn = connect()
    try:
        for i, due in schedule:
            if due is not None:
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            request = requests[i % len(requests)]
            path = request["path"].replace("{newest}", str(newest))
            headers = {SPAN_HEADER: str(base + i)} if trace else {}
            sent = time.perf_counter()
            try:
                conn.request("GET", path, headers=headers)
                if QUICKACK is not None:
                    conn.sock.setsockopt(socket.IPPROTO_TCP, QUICKACK, 1)
                response = conn.getresponse()
                status, body = response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                status, body = 0, repr(exc).encode()
                conn.close()
                conn = connect()
            done = time.perf_counter()
            ok, detail, payload = check_reply(path, status, body, request)
            if ok and path.startswith("/epochs"):
                newest = max(newest, max(e["epoch"] for e in payload["epochs"]))
            if not ok and len(errors) < MAX_ERRORS:
                errors.append(detail)
            samples.append(
                [i % len(requests), sent if due is None else due, sent, done, status, ok]
            )
            if trace:
                spans.append([base + i, sent, done])
    finally:
        conn.close()
    return {"samples": samples, "spans": spans, "errors": errors}


def main() -> int:
    job = json.loads(sys.stdin.readline())
    json.dump(run(job), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
