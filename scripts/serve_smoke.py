#!/usr/bin/env python3
"""CI smoke test for the resident server (`dcd serve`).

Starts a server over a generated EDB with a live update stream, fires
concurrent query sessions at it while scraping health/metrics, validates
the metrics JSON schema and that the worker pool (the server's only
admission control) drained, runs one session wider than the pool, pulls
every session's per-session metrics and Chrome trace, writes the traces to
an artifact directory, and shuts the server down over HTTP.

Stdlib only; exits non-zero with a message on the first violated check.

Usage:
  scripts/serve_smoke.py --dcd build/tools/dcd [--out-dir serve_smoke_out]
"""

import argparse
import http.client
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

TC_PROGRAM = """\
tc(X, Y) :- arc(X, Y).
tc(X, Y) :- tc(X, Z), arc(Z, Y).
.output tc
"""

# Distinct second query shape so the sessions are not all identical work.
HOP_PROGRAM = """\
hop2(X, Y) :- arc(X, Z), arc(Z, Y).
.output hop2
"""

UPDATE_SCRIPT = "".join(
    f"+ arc {1000 + b} {b}\n+ arc {b} {1000 + b}\n---\n" for b in range(6))

NUM_SESSIONS = 6  # >= 4 concurrent queries required by the smoke contract.
POOL = 8
WIDE_WORKERS = 64  # Wider than POOL: the engine caps the gang at the pool.


def fail(msg):
    print(f"serve_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def request(port, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8", "replace")
    finally:
        conn.close()


def expect_keys(obj, keys, where):
    for key in keys:
        if key not in obj:
            fail(f"{where} missing key {key!r}: {obj}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dcd", required=True, help="path to the dcd binary")
    parser.add_argument("--out-dir", default="serve_smoke_out",
                        help="artifact directory for downloaded traces")
    args = parser.parse_args()

    dcd = os.path.abspath(args.dcd)
    out_dir = os.path.abspath(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="serve_smoke_")

    edges = os.path.join(work, "edges.tsv")
    subprocess.run([dcd, "generate", "gnp:300:0.02", edges, "--seed", "7"],
                   check=True)
    updates = os.path.join(work, "updates.txt")
    with open(updates, "w") as f:
        f.write(UPDATE_SCRIPT)
    port_file = os.path.join(work, "port.txt")

    server = subprocess.Popen(
        [dcd, "serve", "--rel", f"arc={edges}:ii", "--port", "0",
         "--port-file", port_file, "--pool", str(POOL),
         "--updates", updates, "--update-interval-ms", "50"])
    try:
        deadline = time.time() + 30
        port = None
        while time.time() < deadline:
            if server.poll() is not None:
                fail(f"server exited early with code {server.returncode}")
            if os.path.exists(port_file):
                text = open(port_file).read().strip()
                if text:
                    port = int(text)
                    break
            time.sleep(0.05)
        if port is None:
            fail("server never wrote its port file")
        print(f"serve_smoke: server up on port {port}")

        status, body = request(port, "GET", "/healthz")
        if status != 200:
            fail(f"/healthz returned {status}: {body}")
        health = json.loads(body)
        expect_keys(health, ("status", "store_version", "sessions_active",
                             "sessions_completed"), "/healthz")
        if health["status"] != "ok":
            fail(f"/healthz status not ok: {health}")

        # Concurrent sessions, with metrics scrapes racing them.
        results = [None] * NUM_SESSIONS
        errors = []

        def run_query(i):
            program = TC_PROGRAM if i % 2 == 0 else HOP_PROGRAM
            try:
                status, body = request(port, "POST", "/query?workers=2",
                                       body=program)
                if status != 200:
                    raise RuntimeError(f"/query returned {status}: {body}")
                results[i] = json.loads(body)
            except Exception as e:  # collected, reported after joins
                errors.append(f"session {i}: {e}")

        threads = [threading.Thread(target=run_query, args=(i,))
                   for i in range(NUM_SESSIONS)]
        for t in threads:
            t.start()
        for _ in range(10):
            status, body = request(port, "GET", "/metrics")
            if status != 200:
                fail(f"/metrics returned {status} during load: {body}")
            time.sleep(0.02)
        for t in threads:
            t.join()
        if errors:
            fail("; ".join(errors))

        sessions = []
        for i, result in enumerate(results):
            expect_keys(result, ("session", "snapshot_version", "seconds",
                                 "outputs"), f"query {i} response")
            expected = "tc" if i % 2 == 0 else "hop2"
            if expected not in result["outputs"]:
                fail(f"query {i} outputs lack {expected}: {result}")
            if result["outputs"][expected] <= 0:
                fail(f"query {i} produced an empty {expected}")
            sessions.append(result["session"])
        if len(set(sessions)) != NUM_SESSIONS:
            fail(f"session ids not distinct: {sessions}")

        # Metrics JSON schema.
        status, body = request(port, "GET", "/metrics")
        if status != 200:
            fail(f"/metrics returned {status}: {body}")
        metrics = json.loads(body)
        expect_keys(metrics, ("pool", "store", "sessions"), "/metrics")
        expect_keys(metrics["pool"], ("capacity", "in_use", "waiting",
                                      "jobs_run"), "/metrics pool")
        expect_keys(metrics["store"], ("version", "relations"),
                    "/metrics store")
        expect_keys(metrics["sessions"], ("active", "completed", "failed"),
                    "/metrics sessions")
        if metrics["sessions"]["completed"] != NUM_SESSIONS:
            fail(f"expected {NUM_SESSIONS} completed sessions: {metrics}")
        if metrics["sessions"]["failed"] != 0:
            fail(f"failed sessions reported: {metrics}")
        # The pool is the only admission control: once every session has
        # finished, no slot is claimed and no gang waits.
        pool = metrics["pool"]
        if pool["in_use"] != 0 or pool["waiting"] != 0:
            fail(f"pool not drained after all sessions finished: {metrics}")
        if pool["jobs_run"] < NUM_SESSIONS:
            fail(f"pool ran fewer jobs than sessions: {metrics}")
        print(f"serve_smoke: metrics OK: {json.dumps(metrics)}")

        # A session wider than the pool runs as wide as the pool.
        status, body = request(port, "POST", f"/query?workers={WIDE_WORKERS}",
                               body=TC_PROGRAM)
        if status != 200:
            fail(f"/query?workers={WIDE_WORKERS} returned {status}: {body}")
        wide = json.loads(body)
        if wide["outputs"].get("tc", 0) <= 0:
            fail(f"wide query produced no tc: {wide}")
        status, body = request(port, "GET",
                               f"/sessions/{wide['session']}/trace")
        if status != 200:
            fail(f"wide session trace returned {status}: {body}")
        tids = {e["tid"] for e in json.loads(body)["traceEvents"]
                if "tid" in e}
        if not tids or max(tids) >= POOL:
            fail(f"wide session ran workers {sorted(tids)} on a pool of "
                 f"{POOL}")
        print(f"serve_smoke: workers={WIDE_WORKERS} ran as "
              f"{len(tids)} pool workers")

        # Per-session exports: metrics counters and a loadable Chrome trace.
        for sid in sessions:
            status, body = request(port, "GET", f"/sessions/{sid}/metrics")
            if status != 200:
                fail(f"/sessions/{sid}/metrics returned {status}: {body}")
            session_metrics = json.loads(body)
            if session_metrics["counters"]["accepts"] <= 0:
                fail(f"session {sid} reported no accepted tuples")
            status, body = request(port, "GET", f"/sessions/{sid}/trace")
            if status != 200:
                fail(f"/sessions/{sid}/trace returned {status}: {body}")
            session_trace = json.loads(body)
            if not session_trace.get("traceEvents"):
                fail(f"session {sid} trace has no events")
            with open(os.path.join(out_dir, f"session_{sid}_trace.json"),
                      "w") as f:
                f.write(body)
        print(f"serve_smoke: {len(sessions)} session exports OK, "
              f"traces in {out_dir}")

        # The update stream must have advanced the store while we worked.
        deadline = time.time() + 30
        while time.time() < deadline:
            status, body = request(port, "GET", "/healthz")
            if json.loads(body)["store_version"] >= 1 + UPDATE_SCRIPT.count(
                    "---"):
                break
            time.sleep(0.1)
        else:
            fail("update stream never advanced the store version")

        status, body = request(port, "POST", "/shutdown")
        if status != 200:
            fail(f"/shutdown returned {status}: {body}")
        if server.wait(timeout=30) != 0:
            fail(f"server exited with code {server.returncode}")
        server = None
        print("serve_smoke: PASS")
    finally:
        if server is not None and server.poll() is None:
            server.kill()
            server.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
