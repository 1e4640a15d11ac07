"""The system under test, run as a child process of the benchmark.

One ``FireMonitoringService`` (durable, ``use_files=True``) fed by a
``SeviriMonitor`` watching an incoming directory, plus the default
single-process ``serve_in_thread`` HTTP server.  The benchmark process
talks to it over stdin/stdout, one JSON object per line::

    -> {"op": "start", ...}          <- {"ok": true, "port": 41234, ...}

Operations: ``start``, ``replay`` (untimed catch-up), ``ingest`` (the
timed closed loop), ``watch`` (the live monitor loop), ``probe_for``
(speed probes while the benchmark reads), ``oracle`` (reference answers
on the latest snapshot), ``report`` and ``stop``.  ``ingest`` and
``probe_for`` record speed probes (``perfbench/probe.py``).  Every reply
carries ``ok``; a failed operation answers ``{"ok": false, "error":
...}`` and the benchmark fails the run.

The benchmark starts it with ``src/`` and the repository root on
``PYTHONPATH``.  Times are ``time.monotonic()`` readings, which on Linux share one
clock across processes, so the benchmark can subtract its own
timestamps (segment written, response received) from the SUT's
(dispatch, publication).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

from perfbench import season as seasons
from perfbench.probe import PROBE_EVERY_S, prepare, record
from perfbench.tracing import Recorder

from repro.core import FireMonitoringService, RunOptions, ServiceConfig
from repro.perf import all_cache_stats
from repro.serve import serve_in_thread
from repro.serve.hotspots import parse_bbox, query_hotspots
from repro.seviri.monitor import SeviriMonitor

HOTSPOT_URIS = """
PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>
SELECT ?h WHERE { ?h a noa:Hotspot }
"""


class _InterpretedView:
    """A snapshot view whose SELECTs run on the interpreted engine —
    the reference the served answers are checked against."""

    def __init__(self, view) -> None:
        self._view = view
        self._rows = None

    def select(self, text, params=None):
        if self._rows is None:
            self._rows = self._view.query(
                text, params=params, query_engine="interpreted"
            )
        return self._rows


def canonical_bindings(doc: Dict[str, Any]) -> str:
    """Order-free canonical text of a SPARQL JSON result."""
    rows = sorted(
        json.dumps(b, sort_keys=True) for b in doc["results"]["bindings"]
    )
    return json.dumps({"vars": doc["head"].get("vars"), "rows": rows})


def canonical_features(features: List[Dict[str, Any]]) -> str:
    return json.dumps(features, sort_keys=True)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Sut:
    def __init__(self) -> None:
        self.service: Optional[FireMonitoringService] = None
        self.monitor: Optional[SeviriMonitor] = None
        self.server = None
        self.recorder: Optional[Recorder] = None
        #: Publication records: sequence, snapshot timestamp, time.
        self.published: List[Dict[str, Any]] = []
        self.acquisitions: List[Dict[str, Any]] = []
        #: Speed probes of the timed phase: [monotonic midpoint, seconds].
        self.probes: List[List[float]] = []
        #: Resident bytes of the probe's table, left out of peak RSS.
        self.probe_bytes = 0
        self.wal_bytes = 0
        self._wal_last = 0
        self._cache_base: Dict[str, Dict[str, float]] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        work = doc["workdir"]
        if doc.get("trace"):
            self.recorder = Recorder()
            self.recorder.install()
        greece = seasons.make_greece()
        self.season = seasons.make_season(greece)
        config = ServiceConfig(
            use_files=True,
            state_dir=os.path.join(work, "state"),
            wal_fsync="commit",
            sources=(
                {"seed": int(doc["sources_seed"])}
                if doc.get("sources")
                else None
            ),
        )
        self.service = FireMonitoringService(greece=greece, config=config)
        self.options = RunOptions(season=self.season)
        self.service.publisher.subscribe(self._on_publish)
        self.monitor = SeviriMonitor(
            doc["incoming"], os.path.join(work, "archive")
        )
        engine = self.service.subscriptions
        engine.register_many(doc["subscriptions"])
        followed = engine.register(doc["followed"])
        self.server = serve_in_thread(self.service, read_workers=4)
        self._wal_path = os.path.join(work, "state", "durable", "wal.log")
        self._wal_last = _size(self._wal_path)
        return {
            "port": self.server.address[1],
            "followed": followed.id,
            "sequence": self.service.publisher.sequence,
        }

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
        if self.monitor is not None:
            self.monitor.close()
        if self.service is not None:
            self.service.close()

    # -- ingest ------------------------------------------------------------

    def _on_publish(self, published) -> None:
        self.published.append(
            {
                "sequence": published.sequence,
                "timestamp": None
                if published.timestamp is None
                else published.timestamp.isoformat(),
                "at": time.monotonic(),
            }
        )

    def _probe(self) -> None:
        if not self.probe_bytes:
            self.probe_bytes = prepare()
        record(self.probes)

    def _run_one(
        self, acquisition, probe_first: bool = False
    ) -> Dict[str, Any]:
        assert self.service is not None
        tag = acquisition.timestamp.isoformat()
        if probe_first:
            self._probe()
        before = len(self.published)
        dispatched = time.monotonic()
        if self.recorder is not None:
            with self.recorder.context(tag):
                [outcome] = self.service.run([acquisition], self.options)
        else:
            [outcome] = self.service.run([acquisition], self.options)
        publication = next(
            (
                p
                for p in self.published[before:]
                if p["timestamp"] == outcome.timestamp.isoformat()
            ),
            None,
        )
        size = _size(self._wal_path)
        self.wal_bytes += (
            size - self._wal_last if size >= self._wal_last else size
        )
        self._wal_last = size
        record = {
            "timestamp": tag,
            "status": outcome.status,
            "errors": list(outcome.errors),
            "dispatched": dispatched,
            "published": None if publication is None else publication["at"],
            "sequence": None
            if publication is None
            else publication["sequence"],
        }
        self.acquisitions.append(record)
        return record

    def _ready(self):
        assert self.monitor is not None
        self.monitor.scan()
        return self.monitor.dispatch_ready()

    def replay(self) -> Dict[str, Any]:
        """Untimed catch-up of everything in the incoming directory."""
        records = [self._run_one(a) for a in self._ready()]
        self.acquisitions.clear()
        return {
            "acquisitions": len(records),
            "failed": sum(r["status"] != "ok" for r in records),
        }

    def begin_phase(self) -> Dict[str, Any]:
        """Mark the start of a timed phase: reset counters and spans."""
        size = self.store_size()
        self.acquisitions.clear()
        self.wal_bytes = 0
        self._wal_last = _size(self._wal_path)
        self._cache_base = all_cache_stats()
        self.probes.clear()
        if self.recorder is not None:
            self.recorder.reset()
            self.recorder.active = True
        return size

    def end_phase(self) -> Dict[str, Any]:
        if self.recorder is not None:
            self.recorder.active = False
        return self.store_size()

    def ingest(self) -> Dict[str, Any]:
        """The closed loop: dispatch and run one acquisition at a time,
        each after a speed probe (the due time is the dispatch, so the
        probe is not part of any latency)."""
        for acquisition in self._ready():
            self._run_one(acquisition, probe_first=True)
        return {"acquisitions": self.acquisitions}

    def watch(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """The live monitor loop: poll the incoming directory and run
        each acquisition as it completes, until ``expected`` of them
        have run or ``timeout_s`` passed.  While idle it probes the
        speed at the ``probe_at`` instants the benchmark chose between
        its reads; one missed by more than ``PROBE_LATE_S`` (an
        acquisition was running) is skipped."""
        assert self.monitor is not None
        poll = float(doc["poll_s"])
        deadline = time.monotonic() + float(doc["timeout_s"])
        probe_at = sorted(float(t) for t in doc.get("probe_at", ()))
        while (
            len(self.acquisitions) < int(doc["expected"])
            and time.monotonic() < deadline
        ):
            ready = self._ready()
            for acquisition in ready:
                self._run_one(acquisition)
            if not ready:
                now = time.monotonic()
                while probe_at and probe_at[0] < now - PROBE_LATE_S:
                    probe_at.pop(0)
                if probe_at and probe_at[0] <= now:
                    probe_at.pop(0)
                    self._probe()
                time.sleep(poll)
        return {"acquisitions": self.acquisitions}

    def probe_for(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Probe the machine's speed every ``PROBE_EVERY_S`` for
        ``seconds`` (while the benchmark's readers run)."""
        deadline = time.monotonic() + float(doc["seconds"])
        while time.monotonic() < deadline:
            self._probe()
            time.sleep(PROBE_EVERY_S)
        return {"probes": len(self.probes)}

    # -- reading back --------------------------------------------------------

    def store_size(self) -> Dict[str, Any]:
        assert self.service is not None
        published = self.service.publisher.latest()
        uris = sorted(
            str(row.get("h")) for row in published.view.select(HOTSPOT_URIS)
        )
        triples = len(published)
        return {
            "triples": triples,
            "hotspots": len(uris),
            "sequence": published.sequence,
            "digest": sha("\n".join(uris) + f"\n{triples}")[:16],
        }

    def oracle(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Reference answers on the latest snapshot, interpreted engine.

        ``hotspots`` entries are ``/v1/hotspots`` filter dicts; the
        one interpreted evaluation of the hotspot query is shared by
        all of them (the filters apply in Python on its rows).
        ``stsparql`` entries are query texts.
        """
        assert self.service is not None
        published = self.service.publisher.latest()
        interpreted = dataclasses.replace(
            published, view=_InterpretedView(published.view)
        )
        hotspots = []
        for filters in doc["hotspots"]:
            if "bbox" in filters:
                filters = dict(filters, bbox=parse_bbox(filters["bbox"]))
            collection = query_hotspots(interpreted, **filters)
            hotspots.append(
                sha(canonical_features(_jsonable(collection["features"])))
            )
        stsparql = [
            sha(
                canonical_bindings(
                    published.view.query(
                        text, query_engine="interpreted"
                    ).to_sparql_json()
                )
            )
            for text in doc["stsparql"]
        ]
        return {
            "sequence": published.sequence,
            "hotspots": hotspots,
            "stsparql": stsparql,
        }

    def log(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """The durable notification log of one subscription after
        ``cursor``: (sequence, notification count) per batch."""
        assert self.service is not None
        engine = self.service.subscriptions
        sub_id = doc["subscription"]
        return {
            "batches": [
                [
                    batch.sequence,
                    sum(
                        1
                        for n in batch.notifications
                        if n.get("subscription") == sub_id
                    ),
                ]
                for batch in engine.replay_after(int(doc["cursor"]))
            ]
        }

    def report(self) -> Dict[str, Any]:
        caches = {}
        for name, stats in all_cache_stats().items():
            base = self._cache_base.get(name, {})
            hits = stats["hits"] - base.get("hits", 0)
            misses = stats["misses"] - base.get("misses", 0)
            caches[name] = {"hits": hits, "misses": misses}
        out: Dict[str, Any] = {
            "peak_rss_mb": (_peak_rss_bytes() - self.probe_bytes) / 1048576.0,
            "caches": caches,
            "wal_bytes": self.wal_bytes,
            "published": self.published,
            "probes": self.probes,
        }
        if self.recorder is not None:
            out["spans"] = self.recorder.export()
            out["span_cost_s"] = self.recorder.calibrate()
        return out


#: How late ``watch`` may start a scheduled probe.
PROBE_LATE_S = 0.1


def _peak_rss_bytes() -> int:
    """This process's peak RSS.  ``VmHWM`` rather than ``ru_maxrss``:
    Linux carries ``ru_maxrss`` across ``exec``, so it would report the
    benchmark process's size at the fork when that was larger."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _jsonable(value):
    """What the HTTP layer's ``json.dumps`` → ``json.loads`` round
    trip gives back (tuples become lists)."""
    return json.loads(json.dumps(value))


def main() -> int:
    protocol = sys.stdout
    # Library output must never interleave with protocol lines.
    sys.stdout = sys.stderr
    sut = Sut()
    handlers = {
        "start": sut.start,
        "replay": lambda doc: sut.replay(),
        "begin_phase": lambda doc: sut.begin_phase(),
        "end_phase": lambda doc: sut.end_phase(),
        "ingest": lambda doc: sut.ingest(),
        "watch": sut.watch,
        "probe_for": sut.probe_for,
        "oracle": sut.oracle,
        "log": sut.log,
        "report": lambda doc: sut.report(),
    }
    try:
        for line in sys.stdin:
            doc = json.loads(line)
            op = doc.get("op")
            if op == "stop":
                break
            try:
                reply = handlers[op](doc)
                reply = dict(reply or {}, ok=True)
            except Exception:  # noqa: BLE001 — the benchmark fails the run
                reply = {"ok": False, "error": traceback.format_exc()}
            protocol.write(json.dumps(reply, default=str) + "\n")
            protocol.flush()
    finally:
        sut.stop()
    protocol.write(json.dumps({"ok": True, "stopped": True}) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
