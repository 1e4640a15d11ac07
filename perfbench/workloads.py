"""The benchmark process: generator, readers, checks and metrics.

It starts the SUT (``perfbench/sut.py``) as a child process, writes the
generated HRIT segments the SUT's monitor picks up, reads the SUT over
HTTP and SSE like a dashboard would, checks every answer against a
reference evaluation, and turns the timestamps of both processes into
the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlencode

from perfbench import season as seasons
from perfbench.layers import END_WINDOW, layer_metrics, trace_report
from perfbench.probe import SpeedScale
from perfbench.sut import canonical_bindings, canonical_features, sha

from repro.core.mapping import MapComposer, region_wkt
from repro.obs.slo import SERVE_LATENCY_SLO_S
from repro.serve.subscribe import DANGER_CLASSES
from repro.seviri.hrit import write_hrit_segments

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``season_ingest`` read phase: offered rate over two keep-alive
#: connections (see ``SEASON_MIX`` for the request mix).
SEASON_READ_RATE = 3.0
SEASON_READ_CONNECTIONS = 2
#: ``crisis_live``: one dashboard connection polling at this rate.
LIVE_READ_RATE = 2.0


@dataclass(frozen=True)
class Sizes:
    """How much each workload does.  Acquisitions are counted in 15-min
    slots from 00:00 of the crisis day."""

    #: ``season_ingest`` times slots [season_first, +season_count).
    season_first: int
    season_count: int
    #: ``crisis_live`` replays [live_morning, live_first) in setup, then
    #: writes live_count slots over ``--seconds``.
    live_morning: int
    live_first: int
    live_count: int
    #: The seeded subscription population registered in setup.
    geofences: int
    fwi: int
    #: SUT start-ups per run; ``setup_s`` takes their median.
    starts: int


#: The benchmark: a backlog from 08:00 of the crisis day, when the
#: first fire ignites, to 08:45 the next day, so that the median timed
#: acquisition sits among the season-scale ones rather than on the step
#: between the quiet night's slots and the burning ones; a live window
#: from 13:30 to 17:15 after a replay of the day from 08:00.  The live
#: window's latencies climb with the store; from 12:30 its median sat on
#: the step at the sixth ignition (15:00) and moved by a sixth from run
#: to run.  The night adds no hotspots, so neither workload replays it.
FULL = Sizes(32, 100, 32, 54, 16, 400, 100, 3)
#: The smoke tests' size: a few fire-active slots of each workload.
TINY = Sizes(44, 6, 40, 44, 3, 20, 5, 1)
SIZES = {"full": FULL, "tiny": TINY}
#: Seconds any one SUT operation may take before the run fails.
RPC_TIMEOUT_S = 150.0
#: The SUT's string-hash seed.  Fixed, so that set and dict iteration
#: orders (and with them the work some layers do) are the same in every
#: run; ``--seed`` varies the inputs only.
SUT_HASH_SEED = "1"


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (the SUT failed or hung)."""


# -- the SUT child process -------------------------------------------------


class SutProcess:
    """One SUT child and its JSON-lines control channel."""

    def __init__(self, workdir: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
        )
        env["PYTHONHASHSEED"] = SUT_HASH_SEED
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "sut.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
        )
        self.workdir = workdir
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._read, name="sut-stdout", daemon=True
        )
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def call(self, op: str, timeout: float = RPC_TIMEOUT_S, **doc):
        self.send(op, **doc)
        return self.receive(op, timeout)

    def send(self, op: str, **doc) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps(dict(doc, op=op)) + "\n")
        self.proc.stdin.flush()

    def receive(self, op: str, timeout: float = RPC_TIMEOUT_S):
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchmarkError(f"SUT {op} timed out after {timeout}s")
        if line is None:
            raise BenchmarkError(f"SUT exited during {op}")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise BenchmarkError(f"SUT {op} failed:\n{reply.get('error')}")
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                assert self.proc.stdin is not None
                self.proc.stdin.write(json.dumps({"op": "stop"}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


# -- generated inputs --------------------------------------------------------


def write_acquisition(scenes, season, when, incoming, staging) -> float:
    """Synthesise one acquisition, write its HRIT segments to
    ``staging`` and rename them into ``incoming`` (so the monitor never
    sees a half-written file).  Returns when the last one landed."""
    scene = scenes.generate(when, season)
    paths = []
    for band, grid in (("IR_039", scene.t039), ("IR_108", scene.t108)):
        paths += write_hrit_segments(staging, "MSG2", band, when, grid)
    for path in paths:
        os.rename(path, os.path.join(incoming, os.path.basename(path)))
    return time.monotonic()


def subscription_population(
    rng: random.Random, season, sizes: Sizes
) -> Dict[str, Any]:
    """Geofences over Greece, FWI watchers, and the followed
    subscription: a geofence around every forest fire of the day."""
    geofences = []
    for _ in range(sizes.geofences):
        lon = rng.uniform(19.5, 28.0)
        lat = rng.uniform(34.8, 41.5)
        half = rng.uniform(0.05, 0.5)
        geofences.append(
            {
                "kind": "filter",
                "bbox": [lon - half, lat - half, lon + half, lat + half],
            }
        )
    fwi = [
        {"kind": "fwi", "min_class": rng.choice(DANGER_CLASSES)}
        for _ in range(sizes.fwi)
    ]
    fires = [e for e in season.events if e.kind == "forest"]
    margin = rng.uniform(0.2, 0.3)
    followed = {
        "kind": "filter",
        "bbox": [
            min(f.lon for f in fires) - margin,
            min(f.lat for f in fires) - margin,
            max(f.lon for f in fires) + margin,
            max(f.lat for f in fires) + margin,
        ],
    }
    return {"subscriptions": geofences + fwi, "followed": followed}


@dataclass
class Read:
    """One request of a read mix and what its answer is checked against."""

    kind: str  # "hotspots" | "stsparql"
    label: str  # "small" | "wide" | "overlay"
    path: str
    body: Optional[str] = None
    filters: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, Optional[str]]:
        return (self.path, self.body)


def _hotspots_read(label: str, filters: Dict[str, Any]) -> Read:
    params = {}
    if "bbox" in filters:
        filters = dict(
            filters, bbox=",".join(f"{v:.3f}" for v in filters["bbox"])
        )
    for name, value in filters.items():
        if isinstance(value, bool):
            params[name] = "true" if value else "false"
        else:
            params[name] = str(value)
    path = "/v1/hotspots" + ("?" + urlencode(params) if params else "")
    return Read("hotspots", label, path, filters=filters)


def _fire_box(rng: random.Random, fire, half: float):
    lon = fire.lon + rng.uniform(-0.05, 0.05)
    lat = fire.lat + rng.uniform(-0.05, 0.05)
    return (
        round(lon - half, 3),
        round(lat - half, 3),
        round(lon + half, 3),
        round(lat + half, 3),
    )


class _QueryText:
    """Stands in for Strabon so MapComposer hands back its query text."""

    def select(self, text, params=None):
        return text


def overlay_query(rng: random.Random, fire) -> str:
    """A map-overlay SELECT of §3.2.4 — ``MapComposer``'s hotspot layer
    (query 1) for a region around ``fire`` and a seeded time window."""
    composer = MapComposer(_QueryText())
    region = region_wkt(*_fire_box(rng, fire, 1.0))
    start = seasons.CRISIS_DAY + timedelta(minutes=rng.randrange(0, 240))
    return composer.hotspots_query(
        region, _stamp(start), _stamp(seasons.CRISIS_DAY + timedelta(days=1))
    )


def _stamp(when: datetime) -> str:
    return when.strftime("%Y-%m-%dT%H:%M:%S")


#: One cycle of the ``season_ingest`` read mix: 5 small
#: ``/v1/hotspots`` reads, 1 whole-Greece one and 4 map overlays
#: (50 / 10 / 40 %), interleaved so every stretch of the phase keeps
#: those shares.  Overlays are cheap, so they get the samples a stable
#: median needs without loading the server.
SEASON_MIX = (
    "small", "overlay", "small", "overlay", "wide",
    "small", "overlay", "small", "overlay", "small",
)  # fmt: skip


def season_read_mix(
    rng: random.Random, season, last: datetime, count: int
) -> List[Read]:
    """``season_ingest`` read phase.  Small reads alternate between the
    bbox of one fire and ``since`` about an hour before the last
    acquisition; whole-Greece reads filter on ``min_confidence`` (and
    half of them ``static=false``); overlays are ``overlay_query``.
    Fires are taken in rotation and boxes and windows are jittered by
    the seed, so URLs rarely repeat."""
    fires = [e for e in season.events if e.kind == "forest"]
    reads = []
    counters = {"small": 0, "wide": 0, "overlay": 0}
    for k in range(count):
        label = SEASON_MIX[k % len(SEASON_MIX)]
        n = counters[label]
        counters[label] += 1
        fire = fires[n % len(fires)]
        if label == "small" and n % 2 == 0:
            box = _fire_box(rng, fire, rng.uniform(0.2, 0.3))
            reads.append(_hotspots_read(label, {"bbox": box}))
        elif label == "small":
            since = last - timedelta(minutes=rng.randrange(45, 76))
            reads.append(_hotspots_read(label, {"since": _stamp(since)}))
        elif label == "wide":
            filters: Dict[str, Any] = {
                "min_confidence": round(rng.uniform(0.5, 0.7), 2)
            }
            if n % 2:
                filters["static"] = False
            reads.append(_hotspots_read(label, filters))
        else:
            reads.append(
                Read(
                    "stsparql",
                    label,
                    "/v1/stsparql",
                    body=overlay_query(rng, fire),
                )
            )
    return reads


def dashboard_reads(rng: random.Random, season, since: datetime) -> List[Read]:
    """``crisis_live``: the fixed URL set one dashboard polls."""
    fires = [e for e in season.events if e.kind == "forest"]
    fire = fires[rng.randrange(len(fires))]
    return [
        _hotspots_read("wide", {}),
        _hotspots_read("small", {"bbox": _fire_box(rng, fire, 0.3)}),
        _hotspots_read("small", {"since": _stamp(since)}),
        _hotspots_read(
            "wide", {"min_confidence": 0.8, "static": False}
        ),
        Read("stsparql", "overlay", "/v1/stsparql", body=overlay_query(rng, fire)),
    ]


# -- HTTP and SSE clients ----------------------------------------------------


@dataclass
class Response:
    read: Read
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    bytes: int = 0
    sequence: Optional[int] = None
    digest: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status in (200, 304)

    @property
    def latency(self) -> float:
        return self.done - self.due


def answer_digest(read: Read, payload: bytes) -> Tuple[str, Optional[int]]:
    """Canonical digest of an answer plus the snapshot it came from."""
    doc = json.loads(payload)
    if read.kind == "hotspots":
        digest = sha(canonical_features(doc["features"]))
    else:
        digest = sha(canonical_bindings(doc))
    return digest, doc["provenance"]["sequence"]


class Connection:
    """One keep-alive HTTP/1.1 connection that behaves like a browser:
    it re-sends ``If-None-Match`` for a URL whose ETag it holds."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.etags: Dict[Tuple[str, Optional[str]], str] = {}

    def fetch(self, response: Response) -> None:
        read = response.read
        headers = {"Connection": "keep-alive"}
        etag = self.etags.get(read.key)
        if etag is not None:
            headers["If-None-Match"] = etag
        response.sent = time.monotonic()
        try:
            if read.body is None:
                self.conn.request("GET", read.path, headers=headers)
            else:
                headers["Content-Type"] = "application/sparql-query"
                self.conn.request(
                    "POST", read.path, body=read.body.encode(), headers=headers
                )
            reply = self.conn.getresponse()
            payload = reply.read()
            response.done = time.monotonic()
            response.status = reply.status
            response.bytes = len(payload)
            if reply.getheader("ETag"):
                self.etags[read.key] = reply.getheader("ETag")
            if reply.status == 200:
                response.digest, response.sequence = answer_digest(
                    read, payload
                )
        except (OSError, http.client.HTTPException, ValueError) as error:
            response.done = time.monotonic()
            response.error = f"{type(error).__name__}: {error}"
            self.conn.close()

    def close(self) -> None:
        self.conn.close()


def open_loop(
    port: int,
    reads: List[Read],
    rate: float,
    connections: int,
    start: float,
) -> Tuple[List[Response], Dict[str, float]]:
    """Send ``reads`` at a fixed offered rate: read ``i`` is due at
    ``start + i / rate`` on connection ``i % connections``.  A
    connection still busy at a due time sends late; the lateness is the
    generator's, the latency counts from the due time regardless."""
    responses = [
        Response(read, due=start + i / rate) for i, read in enumerate(reads)
    ]
    end = start + len(reads) / rate

    def worker(index: int) -> None:
        conn = Connection(port)
        try:
            for response in responses[index::connections]:
                delay = response.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                conn.fetch(response)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"reader-{i}")
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=RPC_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise BenchmarkError("a reader connection hung")
    backlog = sum(
        1 for r in responses if r.due <= end and (r.sent == 0 or r.sent > end)
    )
    late = [max(0.0, r.sent - r.due) for r in responses if r.sent]
    return responses, {"late": late, "backlog": backlog}


class SseFollower:
    """Reads ``/v1/stream`` for one subscription on a thread."""

    def __init__(self, port: int, subscription: str, cursor: int) -> None:
        self.events: List[Dict[str, Any]] = []
        self.error: Optional[str] = None
        self._stop = threading.Event()
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.sendall(
            (
                f"GET /v1/stream?subscription={subscription}&cursor={cursor}"
                " HTTP/1.1\r\nHost: bench\r\nAccept: text/event-stream\r\n\r\n"
            ).encode()
        )
        self.sock.settimeout(0.2)
        self._thread = threading.Thread(
            target=self._run, name="sse", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        buffer = b""
        headers_done = False
        try:
            while not self._stop.is_set():
                try:
                    chunk = self.sock.recv(65536)
                except socket.timeout:
                    continue
                if not chunk:
                    break
                now = time.monotonic()
                buffer += chunk
                if not headers_done:
                    head, sep, rest = buffer.partition(b"\r\n\r\n")
                    if not sep:
                        continue
                    if b" 200 " not in head.split(b"\r\n", 1)[0]:
                        self.error = head.decode("latin-1")
                        break
                    headers_done = True
                    buffer = rest
                while b"\n\n" in buffer:
                    frame, buffer = buffer.split(b"\n\n", 1)
                    self._frame(frame.decode("utf-8"), now)
        except OSError as error:
            self.error = f"{type(error).__name__}: {error}"

    def _frame(self, text: str, now: float) -> None:
        fields: Dict[str, str] = {}
        for line in text.split("\n"):
            if line.startswith(":"):
                return
            name, _, value = line.partition(": ")
            fields[name] = value
        self.events.append(
            {
                "id": int(fields["id"]),
                "event": fields.get("event"),
                "data": fields.get("data"),
                "at": now,
            }
        )

    def wait_for(self, sequence: int, timeout: float = 10.0) -> None:
        """Wait until the batch marker of ``sequence`` arrived (the
        publish that sent it may have just returned)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and not any(
            e["event"] == "batch" and e["id"] >= sequence
            for e in list(self.events)
        ):
            time.sleep(0.01)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.sock.close()


def check_sse(events, log_batches) -> Dict[str, Any]:
    """Batches arrive once each, in order, with no gap against the
    durable log, and no notification arrives twice."""
    markers = [e["id"] for e in events if e["event"] == "batch"]
    expected = [sequence for sequence, _ in log_batches]
    counts: Dict[int, int] = {}
    seen = set()
    duplicates = 0
    for event in events:
        if event["event"] != "notification":
            continue
        key = (event["id"], event["data"])
        duplicates += key in seen
        seen.add(key)
        counts[event["id"]] = counts.get(event["id"], 0) + 1
    contiguous = all(b == a + 1 for a, b in zip(markers, markers[1:]))
    wrong_counts = sum(
        1 for sequence, n in log_batches if counts.get(sequence, 0) != n
    )
    gaps = len(set(expected) - set(markers))
    problems = []
    if markers != expected:
        problems.append(
            f"batch sequences {markers[:3]}..{markers[-3:]} != "
            f"log {expected[:3]}..{expected[-3:]}"
        )
    if not contiguous:
        problems.append("batch sequences not contiguous")
    if duplicates:
        problems.append(f"{duplicates} duplicate notification(s)")
    if wrong_counts:
        problems.append(f"{wrong_counts} batch(es) with a wrong count")
    return {
        "attempted": len(expected),
        "failed": gaps + duplicates + wrong_counts
        + max(0, len(markers) - len(expected)),
        "problems": problems,
    }


# -- statistics -------------------------------------------------------------


def pct(values: List[float], q: float) -> float:
    """Percentile ``q`` (0..100) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkError("no samples for a percentile")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- the workloads -----------------------------------------------------------


class Run:
    """State shared by both workloads: work directories, the SUT, the
    accounting of every stream and the correctness verdicts."""

    def __init__(
        self, workload: str, seed: int, seconds: int, trace: bool, sizes: Sizes
    ):
        self.workload = workload
        self.sizes = sizes
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.work = os.path.join(
            ROOT, ".perfbench", f"{workload}-{seed}-{os.getpid()}"
        )
        self.incoming = os.path.join(self.work, "incoming")
        self.staging = os.path.join(self.work, "staging")
        for path in (self.incoming, self.staging):
            os.makedirs(path, exist_ok=True)
        self.greece = seasons.make_greece()
        self.season = seasons.make_season(self.greece)
        self.scenes = seasons.make_scenes(self.greece)
        self.population = subscription_population(
            random.Random(seasons.POPULATION_SEED), self.season, sizes
        )
        self.sut: Optional[SutProcess] = None
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        #: The untraced run's end-to-end metrics for the same seed, when
        #: one ran in this checkout (the traced report compares).
        self.untraced: Optional[Dict[str, Any]] = None

    def close(self) -> None:
        if self.sut is not None:
            self.sut.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def start_sut(self, sources: bool) -> Tuple[float, Dict[str, Any]]:
        """Start the SUT ``sizes.starts`` times; keep the last.  Returns the
        median start-to-ready time and the kept SUT's start reply."""
        times = []
        reply: Dict[str, Any] = {}
        for k in range(self.sizes.starts):
            began = time.monotonic()
            sut = SutProcess(os.path.join(self.work, f"sut{k}"))
            self.sut = sut
            reply = sut.call(
                "start",
                workdir=sut.workdir,
                incoming=self.incoming,
                sources_seed=seasons.SOURCES_SEED,
                trace=self.trace,
                sources=sources,
                subscriptions=self.population["subscriptions"],
                followed=self.population["followed"],
            )
            times.append(time.monotonic() - began)
            if k < self.sizes.starts - 1:
                sut.close()
                self.sut = None
        return statistics.median(times), reply

    def account_acquisitions(self, records, label: str) -> None:
        bad = [r for r in records if r["status"] != "ok" or r["published"] is None]
        self.attempted += len(records)
        self.failed += len(bad)
        for record in bad[:3]:
            self.problems.append(
                f"{label} acquisition {record['timestamp']} ended "
                f"{record['status']}: {record['errors']}"
            )

    def account_reads(self, responses: List[Response]) -> None:
        self.attempted += len(responses)
        bad = [r for r in responses if not r.ok]
        self.failed += len(bad)
        for response in bad[:3]:
            self.problems.append(
                f"read {response.read.path} failed: status "
                f"{response.status} {response.error or ''}"
            )

    def check_answers(
        self, responses: List[Response], plant_wrong: bool
    ) -> None:
        """Every distinct read's answer equals the interpreted-engine
        evaluation of the same request on the same (final) snapshot."""
        distinct: Dict[Tuple[str, Optional[str]], Read] = {}
        for response in responses:
            distinct.setdefault(response.read.key, response.read)
        reads = list(distinct.values())
        hotspot_reads = [r for r in reads if r.kind == "hotspots"]
        query_reads = [r for r in reads if r.kind == "stsparql"]
        assert self.sut is not None
        oracle = self.sut.call(
            "oracle",
            hotspots=[r.filters for r in hotspot_reads],
            stsparql=[r.body for r in query_reads],
        )
        expected = dict(
            zip([r.key for r in hotspot_reads], oracle["hotspots"])
        )
        expected.update(
            zip([r.key for r in query_reads], oracle["stsparql"])
        )
        checked = [r for r in responses if r.status == 200]
        if plant_wrong and checked:
            # Self-test of the check: one answer is made wrong.
            checked[0].digest = sha("planted wrong answer")
        mismatched = [
            r
            for r in checked
            if r.digest != expected[r.read.key]
            or r.sequence != oracle["sequence"]
        ]
        for response in mismatched[:3]:
            self.problems.append(
                f"answer of {response.read.path} "
                f"{'(' + response.read.body[:40].strip() + '...)' if response.read.body else ''}"
                f" at snapshot {response.sequence} differs from the "
                f"interpreted engine on snapshot {oracle['sequence']}"
            )
        self.failed += len(mismatched)


def _notify(events, due_by_sequence, published_by_sequence):
    """Notification latency per publication as (due, latency) pairs
    (from acquisition due to the first notification frame) and SSE
    delivery in ms (publish → marker)."""
    first: Dict[int, float] = {}
    for event in events:
        if event["event"] == "notification" and event["id"] not in first:
            first[event["id"]] = event["at"]
    notify = [
        (due_by_sequence[seq], at - due_by_sequence[seq])
        for seq, at in first.items()
        if seq in due_by_sequence
    ]
    deliver = [
        1000.0 * (e["at"] - published_by_sequence[e["id"]])
        for e in events
        if e["event"] == "batch" and e["id"] in published_by_sequence
    ]
    return notify, deliver


def run_season_ingest(run: Run, plant_wrong: bool) -> Dict[str, Any]:
    """Catch-up replay of the crisis day, then reads of its end state."""
    sut_start, started = run.start_sut(sources=False)
    sut = run.sut
    assert sut is not None
    began = time.monotonic()
    sizes = run.sizes
    whens = seasons.acquisition_times(
        seasons.CRISIS_DAY + seasons.CADENCE * sizes.season_first,
        sizes.season_count,
    )
    for when in whens:
        write_acquisition(
            run.scenes, run.season, when, run.incoming, run.staging
        )
    setup_s = sut_start + (time.monotonic() - began)

    size_start = sut.call("begin_phase")
    sse = SseFollower(started["port"], started["followed"], started["sequence"])
    try:
        records = sut.call("ingest")["acquisitions"]
        sse.wait_for(max(r["sequence"] or 0 for r in records))
        reads = season_read_mix(
            run.rng,
            run.season,
            whens[-1],
            int(round(SEASON_READ_RATE * run.seconds / 3)),
        )
        sut.send("probe_for", seconds=len(reads) / SEASON_READ_RATE + 0.5)
        responses, generator = open_loop(
            started["port"],
            reads,
            SEASON_READ_RATE,
            SEASON_READ_CONNECTIONS,
            time.monotonic() + 0.05,
        )
        sut.receive("probe_for")
    finally:
        sse.close()
    size_end = sut.call("end_phase")
    report = sut.call("report")

    run.account_acquisitions(records, "timed")
    run.account_reads(responses)
    run.check_answers(responses, plant_wrong)
    sse_check = _check_followed(run, sse, started)

    return _finish(
        run,
        setup_s=setup_s,
        records=records,
        due={r["timestamp"]: r["dispatched"] for r in records},
        responses=responses,
        generator=generator,
        sse=sse,
        sse_check=sse_check,
        report=report,
        size_start=size_start,
        size_end=size_end,
    )


def run_crisis_live(run: Run, plant_wrong: bool) -> Dict[str, Any]:
    """A crisis afternoon: segments land on a fixed cadence while a
    dashboard polls and an SSE stream follows the fires."""
    sut_start, started = run.start_sut(sources=True)
    sut = run.sut
    assert sut is not None
    began = time.monotonic()
    sizes = run.sizes
    whens = seasons.acquisition_times(
        seasons.CRISIS_DAY + seasons.CADENCE * sizes.live_morning,
        sizes.live_first - sizes.live_morning + sizes.live_count,
    )
    morning = sizes.live_first - sizes.live_morning
    for when in whens[:morning]:
        write_acquisition(
            run.scenes, run.season, when, run.incoming, run.staging
        )
    replayed = sut.call("replay")
    run.attempted += replayed["acquisitions"]
    run.failed += replayed["failed"]
    if replayed["failed"]:
        run.problems.append(
            f"{replayed['failed']} morning acquisition(s) not ok"
        )
    setup_s = sut_start + (time.monotonic() - began)

    cadence = run.seconds / sizes.live_count
    window = whens[morning:]
    reads = dashboard_reads(run.rng, run.season, window[0])
    size_start = sut.call("begin_phase")
    sse = SseFollower(
        started["port"], started["followed"], size_start["sequence"]
    )
    start = time.monotonic() + 0.2
    slots = [start + k * cadence for k in range(len(window))]
    poll = [reads[i % len(reads)] for i in range(int(LIVE_READ_RATE * run.seconds))]
    sut.send(
        "watch", expected=sizes.live_count, timeout_s=run.seconds + 60.0,
        poll_s=0.02, probe_at=live_probe_times(start, len(poll), slots),
    )
    due: Dict[str, float] = {}
    late: List[float] = []
    readers: Dict[str, Any] = {}

    def read_loop() -> None:
        readers["result"] = open_loop(
            started["port"], poll, LIVE_READ_RATE, 1, start
        )

    reader = threading.Thread(target=read_loop, name="dashboard")
    reader.start()
    try:
        for when, slot in zip(window, slots):
            delay = slot - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            late.append(max(0.0, time.monotonic() - slot))
            due[when.isoformat()] = write_acquisition(
                run.scenes, run.season, when, run.incoming, run.staging
            )
        drained = sut.receive("watch")
        sse.wait_for(max(r["sequence"] or 0 for r in drained["acquisitions"]))
    finally:
        reader.join(timeout=RPC_TIMEOUT_S)
        sse.close()
    if "result" not in readers:
        raise BenchmarkError("the dashboard reader did not finish")
    responses, generator = readers["result"]
    records = drained["acquisitions"]
    end = start + run.seconds
    behind = sum(1 for r in records if r["published"] and r["published"] > end)
    generator["late"] += late
    generator["backlog"] += len(window) - len(records) + behind
    size_end = sut.call("end_phase")

    # Every distinct dashboard read again, against the final snapshot.
    recheck, _ = open_loop(
        started["port"], reads, 50.0, 1, time.monotonic()
    )
    report = sut.call("report")
    run.account_acquisitions(records, "live")
    if len(records) < len(window):
        run.failed += len(window) - len(records)
        run.problems.append(
            f"{len(window) - len(records)} acquisition(s) never published"
        )
    run.account_reads(responses + recheck)
    run.check_answers(recheck, plant_wrong)
    sse_check = _check_followed(run, sse, started, size_start["sequence"])

    return _finish(
        run,
        setup_s=setup_s,
        records=records,
        due=due,
        responses=responses,
        generator=generator,
        sse=sse,
        sse_check=sse_check,
        report=report,
        size_start=size_start,
        size_end=size_end,
    )


def live_probe_times(start: float, reads: int, slots: List[float]):
    """When ``crisis_live``'s SUT probes its speed: halfway between two
    dashboard reads (the reader is idle then unless a read is slow), but
    never in the last 0.15 s before an acquisition lands, so no
    acquisition waits for a probe."""
    times = [start + (i + 0.5) / LIVE_READ_RATE for i in range(reads)]
    return [
        t for t in times if not any(0.0 <= slot - t < 0.15 for slot in slots)
    ]


def _check_followed(run: Run, sse, started, cursor=None) -> Dict[str, Any]:
    assert run.sut is not None
    if sse.error:
        run.problems.append(f"SSE stream failed: {sse.error}")
    log = run.sut.call(
        "log",
        subscription=started["followed"],
        cursor=started["sequence"] if cursor is None else cursor,
    )["batches"]
    verdict = check_sse(sse.events, log)
    run.attempted += verdict["attempted"]
    run.failed += verdict["failed"]
    run.problems += verdict["problems"]
    return verdict


#: Per-layer rather than end-to-end: with tens of samples per run on a
#: shared two-core machine, the tails' run-to-run spread exceeds any
#: usable bound, and so does that of the 10-20 ms overlay reads, whose
#: latency is mostly scheduling between the server's threads.  The
#: acquisition medians join them: ``crisis_live`` has 16 acquisitions
#: contending with the dashboard for the SUT's GIL, and over ten seeds
#: their median spread by 0.26 (IQR / median), past the widest bound.
TAILS = (
    "acq_p50_s",
    "acq_p90_s",
    "acq_end_p50_s",
    "notify_p50_s",
    "hotspots_p90_ms",
    "stsparql_p50_ms",
    "stsparql_p90_ms",
)


def _finish(
    run: Run,
    setup_s: float,
    records,
    due: Dict[str, float],
    responses: List[Response],
    generator,
    sse: SseFollower,
    sse_check,
    report,
    size_start,
    size_end,
) -> Dict[str, Any]:
    """End-to-end metrics, per-layer metrics and the summary lines.
    ``due`` maps each timed acquisition to its due time; acquisitions
    never published are already counted as failed."""
    records = [r for r in records if r["published"] is not None]
    if not records:
        raise BenchmarkError("no timed acquisition was published")
    try:
        speed = SpeedScale(report["probes"])
    except ValueError as error:
        raise BenchmarkError(str(error))
    timed = [
        (due[r["timestamp"]], r["published"] - due[r["timestamp"]])
        for r in records
    ]
    latencies = [latency for _, latency in timed]
    scaled = speed.scale(timed)
    reads = {
        kind: [
            (r.due, 1000.0 * r.latency)
            for r in responses
            if r.read.kind == kind and r.ok
        ]
        for kind in ("hotspots", "stsparql")
    }
    published = {p["sequence"]: p["at"] for p in report["published"]}
    due_by_sequence = {r["sequence"]: due[r["timestamp"]] for r in records}
    notify, deliver = _notify(sse.events, due_by_sequence, published)
    if not notify:
        raise BenchmarkError("the followed subscription was never notified")
    wall = {
        "acq_p50_s": pct(latencies, 50),
        "acq_end_p50_s": pct(latencies[-END_WINDOW:], 50),
        "hotspots_p50_ms": pct([v for _, v in reads["hotspots"]], 50),
        "notify_p50_s": pct([v for _, v in notify], 50),
    }
    # Every latency is scaled to the probe's nominal machine speed at
    # its due time (see perfbench/probe.py); setup and memory are not.
    metrics = {
        "setup_s": setup_s,
        "acq_p50_s": pct(scaled, 50),
        "acq_p90_s": pct(scaled, 90),
        "acq_end_p50_s": pct(scaled[-END_WINDOW:], 50),
        "acq_per_min": 60.0 * len(scaled) / sum(scaled),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    for kind, samples in reads.items():
        values = speed.scale(samples)
        metrics[f"{kind}_p50_ms"] = pct(values, 50)
        metrics[f"{kind}_p90_ms"] = pct(values, 90)
    metrics["notify_p50_s"] = pct(speed.scale(notify), 50)
    tails = {name: metrics.pop(name) for name in TAILS}
    tails.update({f"wall.{name}": value for name, value in wall.items()})
    tails["probe.ms"] = 1000.0 * speed.median_probe()
    behind = generator["backlog"] > 0
    notes = []
    if behind:
        notes.append(
            f"generator fell behind: backlog {generator['backlog']} at the "
            "end of the timed phase"
        )
    reads_ok = [r for r in responses if r.ok]
    slo_misses = sum(
        1 for r in responses if not r.ok or r.latency > SERVE_LATENCY_SLO_S
    )
    context = {
        "records": records,
        "latencies": scaled,
        "responses": reads_ok,
        "late_ms": 1000.0 * statistics.fmean(generator["late"]),
        "backlog": generator["backlog"],
        "deliver_ms": deliver,
        "report": report,
        "size_start": size_start,
        "size_end": size_end,
        "slo_miss_ratio": slo_misses / max(1, len(responses)),
        "failed_ratio": run.failed / max(1, run.attempted),
        "behind": behind,
        "tails": tails,
    }
    layers = layer_metrics(context)
    lines = [
        f"workload {run.workload} seed {run.seed}: "
        f"{len(records)} timed acquisitions, {len(responses)} timed reads, "
        f"{sse_check['attempted']} SSE batches",
        f"store: {size_start['triples']} -> {size_end['triples']} triples, "
        f"{size_start['hotspots']} -> {size_end['hotspots']} hotspots",
        f"surviving-hotspot digest {size_end['digest']} "
        f"({size_end['hotspots']} hotspots, {size_end['triples']} triples)",
        f"attempted {run.attempted}, failed {run.failed}",
    ]
    lines += [f"NOTE: {note}" for note in notes]
    lines += [f"CHECK FAILED: {problem}" for problem in run.problems]
    if run.trace:
        lines.append(trace_report(context, layers, run.untraced))
    return {
        "e2e": metrics,
        "layers": layers,
        "summary": lines,
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
    }


WORKLOADS = {
    "season_ingest": run_season_ingest,
    "crisis_live": run_crisis_live,
}


def run_workload(
    workload: str,
    seed: int,
    seconds: int,
    trace: bool,
    plant_wrong: bool = False,
    untraced: Optional[Dict[str, Any]] = None,
    sizes: Sizes = FULL,
) -> Dict[str, Any]:
    run = Run(workload, seed, seconds, trace, sizes)
    run.untraced = untraced
    try:
        return WORKLOADS[workload](run, plant_wrong)
    finally:
        run.close()
