"""The generated crisis day every workload replays.

``FireSeason``'s own sampler draws a Poisson number of fires with radii
from 0.5 to 5 km, so two of its seeds can differ threefold in hotspots.
The benchmark needs a season of one known size instead, so the day here
is a fixed template modelled on the repository's reference crisis day
(``FireSeason(seed=7)``, 24 August 2007): six forest fires, five of them
with a smoke plume over the sea, and three agricultural burns, placed
once by :data:`SITE_SEED`.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone
from typing import List, Tuple

import numpy as np

from repro.datasets import SyntheticGreece
from repro.datasets.corine import FIRE_CONSISTENT_KEYS
from repro.seviri.fires import FireEvent, FireSeason
from repro.seviri.scene import SceneGenerator

#: Seed of the fire sites.  It is fixed: the benchmark's ``--seed``
#: draws the subscriptions and the reads, never the fires or the
#: scenes, so every seed replays the same season and the season's size
#: adds no spread to the metrics.
SITE_SEED = 7

#: Seed of the federated sources (``crisis_live``'s polar-orbiter
#: passes and weather stations), fixed for the same reason: with it
#: drawn from ``--seed``, the afternoon's work moved by a tenth from
#: seed to seed.
SOURCES_SEED = 7

#: Seed of the subscription population (the geofences, FWI watchers and
#: the followed subscription), fixed for the same reason: which
#: geofences the fires fall into sets how many notifications each
#: acquisition commits and fans out, and with the population drawn from
#: ``--seed`` the live median latency moved by a fifth from seed to seed.
POPULATION_SEED = 7

#: 00:00 UTC of the crisis day every workload replays.
CRISIS_DAY = datetime(2007, 8, 24, tzinfo=timezone.utc)

#: The MSG acquisition cadence (§2: one SEVIRI scan every 15 minutes).
CADENCE = timedelta(minutes=15)

#: (ignition hour, duration h, max radius km, smoke plume) per forest
#: fire: the reference day's timing, its radii scaled by
#: :data:`RADIUS_SCALE`.
FOREST_TEMPLATE: Tuple[Tuple[float, float, float, bool], ...] = (
    (8.2, 7.7, 1.2, False),
    (9.0, 12.5, 4.8, True),
    (9.2, 12.2, 2.3, True),
    (12.1, 12.5, 3.5, True),
    (12.4, 14.0, 4.1, True),
    (15.0, 7.4, 3.2, True),
)

#: Forest-fire radii relative to the reference day.  At 1.0 the day
#: ends near 1.1k hotspots and one replay takes over a minute on two
#: cores; 0.6 keeps a run inside the benchmark's time budget.
RADIUS_SCALE = 0.6

#: (ignition hour, duration h, max radius km) per agricultural burn.
AGRICULTURAL_TEMPLATE: Tuple[Tuple[float, float, float], ...] = (
    (8.5, 1.9, 0.9),
    (9.6, 1.1, 0.6),
    (14.4, 1.6, 1.1),
)


def make_greece() -> SyntheticGreece:
    """The geography every workload uses (the library default)."""
    return SyntheticGreece(seed=42)


def make_season(greece: SyntheticGreece) -> FireSeason:
    """The crisis day: the fixed template placed by :data:`SITE_SEED`."""
    season = FireSeason(greece, CRISIS_DAY, days=1, seed=SITE_SEED)
    rng = np.random.default_rng(SITE_SEED)
    events: List[FireEvent] = []
    for hour, duration, radius, smoke in FOREST_TEMPLATE:
        fire = _place(
            greece,
            rng,
            len(events),
            hour,
            duration,
            radius * RADIUS_SCALE,
            "forest",
        )
        events.append(fire)
        if smoke:
            events.append(_smoke(greece, rng, len(events), fire))
    for hour, duration, radius in AGRICULTURAL_TEMPLATE:
        events.append(
            _place(
                greece,
                rng,
                len(events),
                hour,
                duration,
                radius,
                "agricultural",
            )
        )
    season.events = events
    return season


def make_scenes(greece: SyntheticGreece) -> SceneGenerator:
    """The scene synthesiser (the library's default terrain and sensor
    noise), so every seed replays the same acquisitions."""
    return SceneGenerator(greece)


def acquisition_times(start: datetime, count: int) -> List[datetime]:
    return [start + CADENCE * k for k in range(count)]


def _footprint(
    lon: float, lat: float, radius_km: float
) -> List[Tuple[float, float]]:
    """The centre and 16 points on a circle 3 km (about one SEVIRI
    pixel) beyond the fire's largest radius."""
    r = (radius_km + 3.0) / 111.0
    return [(lon, lat)] + [
        (
            lon + r * math.cos(2 * math.pi * k / 16),
            lat + r * math.sin(2 * math.pi * k / 16),
        )
        for k in range(16)
    ]


def _burnable(greece: SyntheticGreece, kind: str, lon, lat) -> bool:
    if not greece.is_land(lon, lat):
        return False
    cover = greece.land_cover_at(lon, lat)
    if kind == "forest":
        return cover in FIRE_CONSISTENT_KEYS
    return cover is not None and cover not in FIRE_CONSISTENT_KEYS


def _place(
    greece: SyntheticGreece,
    rng: np.random.Generator,
    event_id: int,
    hour: float,
    duration: float,
    radius: float,
    kind: str,
) -> FireEvent:
    """A fire whose whole footprint lies on one kind of ground, so the
    refinement keeps (forest) or drops (agricultural) all of it and the
    seed does not move the season's size."""
    minx, miny, maxx, maxy = greece.bbox
    while True:
        lon = float(rng.uniform(minx + 0.3, maxx - 0.3))
        lat = float(rng.uniform(miny + 0.3, maxy - 0.3))
        if all(
            _burnable(greece, kind, x, y)
            for x, y in _footprint(lon, lat, radius)
        ):
            break
    start = CRISIS_DAY + timedelta(hours=hour)
    return FireEvent(
        event_id=event_id,
        lon=lon,
        lat=lat,
        start=start,
        peak=start + timedelta(hours=duration * 0.4),
        end=start + timedelta(hours=duration),
        max_radius_km=radius,
        kind=kind,
        wind_direction=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def _smoke(
    greece: SyntheticGreece,
    rng: np.random.Generator,
    event_id: int,
    fire: FireEvent,
) -> FireEvent:
    """A warm plume wholly over the sea (Figure 7's false alarms), which
    the "Delete In Sea" refinement removes."""
    radius = fire.max_radius_km * 1.2
    minx, miny, maxx, maxy = greece.bbox
    while True:
        lon = float(rng.uniform(minx + 0.3, maxx - 0.3))
        lat = float(rng.uniform(miny + 0.3, maxy - 0.3))
        if not any(
            greece.is_land(x, y)
            for x, y in _footprint(lon, lat, radius + 10.0)
        ):
            break
    return FireEvent(
        event_id=event_id,
        lon=lon,
        lat=lat,
        start=fire.start + timedelta(minutes=30),
        peak=fire.peak,
        end=fire.end,
        max_radius_km=radius,
        kind="smoke",
        wind_direction=fire.wind_direction,
    )
