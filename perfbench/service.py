"""service-mix: ``repro service`` on sqlite under a closed-loop request mix.

The service runs in a child process, booted from a pre-generated
signature set.  One load process (this one) holds two persistent
connections, one per usable core, each in a closed loop over the mix
fetch 3 / screen 4 / burst 1 / report 2.  A burst is one same-tick
screen of more events than the gateway's admission queue holds, so
shedding engages.  Under load only status, byte count and time are
recorded; no response is decoded.  In the middle of the run connection 0
republishes a newer set and then re-publishes the stale boot set, which
must be refused with 409.

The load runs in segments.  After every segment a second, throwaway
service is spawned and timed until it answers ``/healthz``, so set-up
samples are spread through the run while the load is paused.  Throughput
and latency percentiles are computed per segment from every request in
it, and the run reports their median over segments: a stretch of host
steal that covers a minority of the segments then leaves the result alone.

Quality is measured after the load on fixed inputs: the boot and
republished sets come from fixed sample seeds, and a fixed probe (every
``PROBE_STRIDE``-th packet of the corpus) is screened over the socket and
compared with an in-process gateway.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import sys
import threading
import time
from collections import deque

from measure import (
    WORK,
    NullSpans,
    Outcome,
    ROOT,
    child_env,
    clock,
    median,
    peak_rss_mb_pid,
    percentile,
)

from repro.core.server import SignatureServer
from repro.federation.ingest import FleetIngest
from repro.federation.report import DeviceReport, encode_report, token_for
from repro.serving.gateway import ScreeningGateway
from repro.serving.loadgen import ScreeningEvent
from repro.service.repository import open_repositories
from repro.service.server import SignatureService
from repro.service.wire import canonical_decisions, decode_event, encode_event, encode_results
from repro.signatures.store import SignatureStore

MIX = {"fetch": 3, "screen": 4, "burst": 1, "report": 2}
ROUTES = ("fetch", "screen", "report")
CONNECTIONS = 2
SEGMENTS = 6
SCREEN_EVENTS = 4
BURST_EVENTS = 64 + 16  # the gateway's default queue_capacity, plus overflow
REPORTS_PER_POST = 2
BODY_POOL = 256
#: Boot and republished sets: fixed samples, so quality never depends on
#: the run's seed or on how much load completed.
SIGNATURE_SAMPLE = 200
BOOT_SAMPLE_SEED = 1
RELOAD_SAMPLE_SEED = 2
PROBE_STRIDE = 4
PROBE_CHUNK = 1000
#: Seconds of socket load in a traced run of another workload.
LAYER_LOAD_SECONDS = 8.0
MIN_BATCH_S = 0.005
BATCHES = 15


class Fixture:
    """Everything the load needs, built before any timing."""

    def __init__(self, ctx, seed: int) -> None:
        server = SignatureServer(ctx.check)
        server.ingest(ctx.trace)
        self.boot = list(server.generate(SIGNATURE_SAMPLE, seed=BOOT_SAMPLE_SEED).signatures)
        self.reload = list(server.generate(SIGNATURE_SAMPLE, seed=RELOAD_SAMPLE_SEED).signatures)
        self.boot_document = SignatureStore.dumps_envelope(self.boot, 1)
        self.reload_document = SignatureStore.dumps_envelope(self.reload, 2)
        WORK.mkdir(parents=True, exist_ok=True)
        self.boot_path = WORK / "boot_signatures.json"
        SignatureStore.save(self.boot, self.boot_path)
        self.packets = ctx.trace.packets
        rng = random.Random(f"{seed}|service-bodies")
        self.screen_bodies = [self._events_body(rng, SCREEN_EVENTS, 1.0) for __ in range(BODY_POOL)]
        self.burst_bodies = [self._events_body(rng, BURST_EVENTS, 0.0) for __ in range(BODY_POOL // 8)]
        self.seed = seed

    def _events_body(self, rng, n: int, spacing: float) -> bytes:
        events = [
            encode_event(
                ScreeningEvent(
                    seq=i,
                    tick=i * spacing,
                    device_id=f"bench-{rng.randrange(1 << 16):05d}",
                    packet=self.packets[rng.randrange(len(self.packets))],
                )
            )
            for i in range(n)
        ]
        return json.dumps({"events": events}).encode("utf-8")

    def reports(self, device: str) -> "ReportBodies":
        return ReportBodies(self.packets, f"{self.seed}|{device}", device)


class ReportBodies:
    """Report posts for one device, with strictly increasing sequence
    numbers so the ingest plane accepts every one."""

    def __init__(self, packets, label: str, device: str) -> None:
        self.packets = packets
        self.rng = random.Random(f"{label}|reports")
        self.device = device
        self.seq = 0

    def records(self) -> list[dict]:
        records = []
        for __ in range(REPORTS_PER_POST):
            self.seq += 1
            packet = self.packets[self.rng.randrange(len(self.packets))]
            records.append(
                encode_report(
                    DeviceReport(
                        device_id=self.device, seq=self.seq, token=token_for(packet), packet=packet
                    )
                )
            )
        return records

    def body(self) -> bytes:
        return json.dumps({"reports": self.records()}).encode("utf-8")


# -- the service child process -----------------------------------------------------


class ServiceProcess:
    """``repro service`` in a child process on its own sqlite file."""

    def __init__(self, fixture: Fixture, name: str) -> None:
        self.db = WORK / f"{name}.sqlite3"
        self.ready = WORK / f"{name}.ready"
        for path in (self.db, self.ready, WORK / f"{name}.sqlite3-wal", WORK / f"{name}.sqlite3-shm"):
            path.unlink(missing_ok=True)
        started = clock()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "service",
                "--signatures", str(fixture.boot_path),
                "--db", str(self.db),
                "--ready-file", str(self.ready),
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
        )
        try:
            self.host, self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = clock() - started

    def _wait_ready(self) -> tuple[str, int]:
        deadline = clock() + 60.0
        while clock() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"service exited {self.process.returncode} during boot")
            text = self.ready.read_text() if self.ready.exists() else ""
            if text.endswith("\n"):
                host, port = text.strip().rsplit(":", 1)
                status, __ = request(host, int(port), "GET", "/healthz")
                if status == 200:
                    return host, int(port)
            time.sleep(0.002)
        raise RuntimeError("service did not become ready within 60 s")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_pid(self.process.pid)

    def stop(self) -> None:
        """Terminate and wait.  SIGINT is not used: a process started in
        the background inherits SIGINT ignored, and the service would
        never see it."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def request(host: str, port: int, method: str, path: str, body: bytes | None = None):
    connection = http.client.HTTPConnection(host, port, timeout=60.0)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


# -- the load ------------------------------------------------------------------------


class Load:
    """Two persistent connections in a closed loop, run segment by segment."""

    def __init__(self, fixture: Fixture, service: ServiceProcess, seed: int) -> None:
        self.fixture = fixture
        self.connections = [
            http.client.HTTPConnection(service.host, service.port, timeout=60.0)
            for __ in range(CONNECTIONS)
        ]
        self.rngs = [random.Random(f"{seed}|service-conn|{c}") for c in range(CONNECTIONS)]
        self.reports = [fixture.reports(f"load-{c}") for c in range(CONNECTIONS)]
        # Pre-built report posts, sent oldest first so sequence numbers
        # rise and the ingest plane accepts every report; more are built
        # on demand if a fast host uses them all.
        self.report_bodies = [deque(r.body() for __ in range(600)) for r in self.reports]
        self.version = 1
        self.samples: list[tuple[str, int, int, float]] = []  # op, status, bytes, s
        self.planned: dict[str, int] = {}
        self.seconds = 0.0
        self.segments: list[tuple[float, list]] = []  # (seconds, samples)

    def close(self) -> None:
        for connection in self.connections:
            connection.close()

    def _send(self, c: int, method: str, path: str, body: bytes | None) -> tuple[int, int]:
        connection = self.connections[c]
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, len(response.read())

    def _one(self, c: int, spans, samples: list) -> None:
        rng = self.rngs[c]
        op = rng.choices(tuple(MIX), weights=tuple(MIX.values()))[0]
        if op == "fetch":
            path = "/v1/signatures"
            if rng.random() < 0.5:
                path += f"?since={self.version}"
            method, body = "GET", None
        elif op == "report":
            pool = self.report_bodies[c]
            method, path = "POST", "/v1/reports"
            body = pool.popleft() if pool else self.reports[c].body()
        else:
            pool = self.fixture.screen_bodies if op == "screen" else self.fixture.burst_bodies
            method, path, body = "POST", "/v1/screen", pool[rng.randrange(len(pool))]
        with spans.span(f"service.request.{op}"):
            t0 = clock()
            status, size = self._send(c, method, path, body)
            samples.append((op, status, size, clock() - t0))

    def republish(self) -> None:
        """The planned publish of a newer set, then the stale re-publish,
        both on connection 0."""
        status, __ = self._send(0, "POST", "/v1/signatures", self.fixture.reload_document.encode())
        self.planned["republish"] = status
        if status == 201:
            self.version = 2
        status, __ = self._send(0, "POST", "/v1/signatures", self.fixture.boot_document.encode())
        self.planned["stale_republish"] = status

    def segment(self, seconds: float, spans, republish: bool = False) -> list:
        """Run both connections for ``seconds``; returns this segment's samples."""
        per_connection: list[list] = [[] for __ in range(CONNECTIONS)]
        errors: list[BaseException] = []
        deadline = clock() + seconds

        def loop(c: int) -> None:
            try:
                if republish and c == 0:
                    self.republish()
                while clock() < deadline:
                    self._one(c, spans, per_connection[c])
            except BaseException as exc:  # surfaced to the main thread below
                errors.append(exc)

        started = clock()
        threads = [
            threading.Thread(target=loop, args=(c,), daemon=True) for c in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
            if thread.is_alive():
                raise RuntimeError("load connection did not finish")
        elapsed = clock() - started
        self.seconds += elapsed
        if errors:
            raise errors[0]
        samples = [s for connection in per_connection for s in connection]
        self.samples.extend(samples)
        self.segments.append((elapsed, samples))
        return samples


def failures(load: Load) -> int:
    bad = sum(1 for __, status, __, __ in load.samples if status not in (200, 304))
    bad += load.planned.get("republish") != 201
    bad += load.planned.get("stale_republish") != 409
    return bad


def check_reports_stored(load: Load, service: ServiceProcess, out: Outcome) -> None:
    """Every report the load posted must be accepted and stored.

    Report responses are not decoded under load, so this reads the
    ingest and repository counters from ``/healthz`` afterwards.  A
    shortfall counts as that many failed operations.
    """
    sent = REPORTS_PER_POST * sum(
        1 for op, status, __, __ in load.samples if op == "report" and status == 200
    )
    status, payload = request(service.host, service.port, "GET", "/healthz")
    health = json.loads(payload) if status == 200 else {}
    accepted = health.get("ingest", {}).get("accepted", 0)
    stored = health.get("reports", {}).get("stored", 0)
    ok = accepted == sent and stored == sent
    out.checks["reports_accepted_and_stored"] = ok
    out.failed += max(sent - min(accepted, stored), 0 if ok else 1)
    out.details["reports"] = {"sent": sent, "accepted": accepted, "stored": stored}


# -- after the load: fixed-input checks --------------------------------------------


def probe(ctx, fixture: Fixture, service: ServiceProcess, out: Outcome) -> tuple[float, float]:
    """Screen the fixed probe over the socket; compare with an in-process
    gateway on the same set; return (TP %, FP %)."""
    reference = ScreeningGateway(fixture.boot)
    reference.apply_reload(SignatureStore.loads_envelope(fixture.reload_document), tick=0.0)
    suspicious = {id(packet) for packet in ctx.suspicious}
    probe_packets = ctx.trace.packets[::PROBE_STRIDE]
    flagged = {True: 0, False: 0}
    totals = {True: 0, False: 0}
    for start in range(0, len(probe_packets), PROBE_CHUNK):
        chunk = probe_packets[start : start + PROBE_CHUNK]
        events = [
            ScreeningEvent(seq=i, tick=float(i), device_id="probe", packet=packet)
            for i, packet in enumerate(chunk)
        ]
        body = json.dumps({"events": [encode_event(e) for e in events]}).encode("utf-8")
        status, payload = request(service.host, service.port, "POST", "/v1/screen", body)
        out.attempted += 1
        if status != 200:
            out.failed += 1
            out.checks["probe_screen_identical"] = False
            continue
        results = json.loads(payload)["results"]
        expected = canonical_decisions(encode_results(reference.run(events)))
        out.check("probe_screen_identical", canonical_decisions(results) == expected)
        for packet, result in zip(chunk, results):
            label = id(packet) in suspicious
            totals[label] += 1
            flagged[label] += result["outcome"] == "flagged"
    return 100.0 * flagged[True] / totals[True], 100.0 * flagged[False] / totals[False]


def fetch_matches(service: ServiceProcess, document: str) -> bool:
    status, payload = request(service.host, service.port, "GET", "/v1/signatures")
    return status == 200 and payload.decode("utf-8") == document


def measure(ctx, seed: int, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics only."""
    out = Outcome()
    fixture = Fixture(ctx, seed)
    service = ServiceProcess(fixture, "service")
    setups = [service.setup_s]
    try:
        out.check("fetch_identical_before_republish", fetch_matches(service, fixture.boot_document))
        load = Load(fixture, service, seed)
        try:
            for number in range(SEGMENTS):
                load.segment(seconds / SEGMENTS, NullSpans(), republish=number == SEGMENTS // 2)
                spare = ServiceProcess(fixture, "spare")
                spare.stop()
                setups.append(spare.setup_s)
        finally:
            load.close()
        out.check("fetch_identical_after_republish", fetch_matches(service, fixture.reload_document))
        check_reports_stored(load, service, out)
        tp, fp = probe(ctx, fixture, service, out)
        rss = service.peak_rss_mb()
    finally:
        service.stop()

    out.attempted += len(load.samples) + 2
    out.failed += failures(load)
    segments = [(elapsed, [s for *__, s in samples]) for elapsed, samples in load.segments]
    out.metric("throughput_per_s", median(len(s) / elapsed for elapsed, s in segments), "1/s")
    out.metric("latency_p50_ms", 1000.0 * median(median(s) for __, s in segments), "ms")
    out.metric(
        "latency_p99_ms", 1000.0 * median(percentile(s, 99.0) for __, s in segments), "ms"
    )
    out.metric("setup_s", median(setups), "s")
    out.metric("detect_tp_pct", tp, "%")
    out.metric("detect_fp_pct", fp, "%")
    out.metric("peak_rss_mb", rss, "MiB")
    statuses: dict[str, int] = {}
    for op, status, __, __ in load.samples:
        key = f"{op}:{status}"
        statuses[key] = statuses.get(key, 0) + 1
    out.details["requests"] = {"n": len(load.samples), "by_status": statuses, **load.planned}
    out.details["samples"] = {
        "setup_s": setups,
        "segment_requests": [len(s) for __, s in segments],
        "segment_throughput_per_s": [len(s) / elapsed for elapsed, s in segments],
    }
    return out


# -- per-layer measurements ----------------------------------------------------------


def per_call_ms(call, make_input, threads: int = 1) -> float:
    """Median milliseconds per ``call(input)`` over batches of at least
    ``MIN_BATCH_S``.

    Every input comes from ``make_input()`` and is made before any clock
    starts.  With ``threads`` the batches run on that many threads at once
    and every thread's batches count.
    """
    k = 1
    while True:
        inputs = [make_input() for __ in range(k)]
        t0 = clock()
        for item in inputs:
            call(item)
        if clock() - t0 >= MIN_BATCH_S:
            break
        k *= 2
    work = [[[make_input() for __ in range(k)] for __ in range(BATCHES)] for __ in range(threads)]
    samples: list[float] = []
    lock = threading.Lock()

    def worker(batches) -> None:
        for inputs in batches:
            t0 = clock()
            for item in inputs:
                call(item)
            with lock:
                samples.append(1000.0 * (clock() - t0) / k)

    pool = [threading.Thread(target=worker, args=(batches,)) for batches in work]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return median(samples)


def _cycle(items):
    position = iter(range(1 << 62))
    return lambda: items[next(position) % len(items)]


def _fresh_record(fixture: Fixture, label: str):
    """Report envelopes, each from a device never seen before, so every
    one is accepted in whatever order the threads submit them."""
    devices = iter(range(1 << 62))
    return lambda: fixture.reports(f"{label}-{next(devices)}").records()[0]


def in_process_layers(fixture: Fixture, out: Outcome) -> dict[str, float]:
    """Layers called directly, on one thread (and on two, for contention).

    Returns the one-thread milliseconds per service call, by route.
    """
    screen_records = [json.loads(body)["events"] for body in fixture.screen_bodies]
    screen_events = [[decode_event(r) for r in records] for records in screen_records]
    burst_events = [
        [decode_event(r) for r in json.loads(body)["events"]] for body in fixture.burst_bodies
    ]
    gateway = ScreeningGateway(fixture.boot)
    out.metric("gateway.run_ms.screen", per_call_ms(gateway.run, _cycle(screen_events)), "ms")
    out.metric("gateway.run_ms.burst", per_call_ms(gateway.run, _cycle(burst_events)), "ms")
    shed = sum(1 for events in burst_events for r in gateway.run(events) if not r.screened)
    out.metric("gateway.shed_pct", 100.0 * shed / sum(map(len, burst_events)), "%")

    def codec(pair) -> None:
        records, results = pair
        [decode_event(record) for record in records]
        encode_results(results)

    pairs = list(zip(screen_records, [gateway.run(e) for e in screen_events]))
    out.metric("wire.codec_ms", per_call_ms(codec, _cycle(pairs)), "ms")

    for path in WORK.glob("layers.sqlite3*"):
        path.unlink()
    signatures, reports, store = open_repositories(WORK / "layers.sqlite3")
    try:
        signatures.store(fixture.boot_document)
        signatures.store(fixture.reload_document)
        out.metric("repository.latest_ms", per_call_ms(lambda __: signatures.latest(), lambda: None), "ms")

        def add(record) -> None:
            reports.add(record["device_id"], record["seq"], record["token"], record)

        out.metric("repository.add_ms", per_call_ms(add, _fresh_record(fixture, "repository")), "ms")
    finally:
        store.close()

    ingest = FleetIngest()
    ticks = iter(range(1, 1 << 62))
    out.metric(
        "ingest.submit_ms",
        per_call_ms(
            lambda record: ingest.submit(record, tick=float(next(ticks))),
            _fresh_record(fixture, "ingest"),
        ),
        "ms",
    )

    for path in WORK.glob("inproc.sqlite3*"):
        path.unlink()
    service = SignatureService(fixture.boot, db_path=str(WORK / "inproc.sqlite3"))
    try:
        fresh = _fresh_record(fixture, "inproc")
        calls = {
            "fetch": (lambda __: service.fetch(), lambda: None),
            "screen": (service.screen, _cycle([json.loads(b) for b in fixture.screen_bodies])),
            "report": (service.ingest_reports, lambda: {"reports": [fresh(), fresh()]}),
        }
        one = {route: per_call_ms(*calls[route]) for route in ROUTES}
        for route in ("screen", "report"):
            two = per_call_ms(*calls[route], threads=2)
            out.metric(f"service.contention_ms.{route}", two - one[route], "ms")
    finally:
        if service.store is not None:
            service.store.close()
    for route, value in one.items():
        out.metric(f"service.call_ms.{route}", value, "ms")
    return one


def layers(ctx, seed: int, seconds: float, spans, out: Outcome, compare: bool) -> None:
    """Per-layer metrics of the service path (the traced run).

    With ``compare`` the socket load alternates segments with spans on
    and off for ``seconds``, which gives the tracing overhead; otherwise
    a shorter load runs with spans on.
    """
    fixture = Fixture(ctx, seed)
    on: list = []
    off: list = []
    service = ServiceProcess(fixture, "service")
    try:
        load = Load(fixture, service, seed)
        try:
            if compare:
                for number in range(2 * SEGMENTS):
                    traced = (number + seed) % 2 == 0
                    samples = load.segment(
                        seconds / (2 * SEGMENTS), spans if traced else NullSpans()
                    )
                    (on if traced else off).extend(samples)
            else:
                on = load.segment(LAYER_LOAD_SECONDS, spans)
        finally:
            load.close()
        check_reports_stored(load, service, out)
    finally:
        service.stop()
    out.attempted += len(load.samples)
    out.failed += sum(1 for __, status, __, __ in load.samples if status not in (200, 304))
    if compare:
        out.metric(
            "obs.tracing_overhead_pct",
            100.0 * (median(s for *__, s in on) / median(s for *__, s in off) - 1.0),
            "%",
        )
    inproc = in_process_layers(fixture, out)
    for route in ROUTES:
        socket_s = [s for op, __, __, s in on if op == route]
        out.metric(f"service.route_p99_ms.{route}", 1000.0 * percentile(socket_s, 99.0), "ms")
        out.metric(f"http.overhead_ms.{route}", 1000.0 * median(socket_s) - inproc[route], "ms")
