"""Two-step freeway / surface-street classification.

Step one matches the crash's coded road name against known freeway
routes: route-number patterns (I-#, US-#, SR-#, LOOP-#) plus an alias
table for local names.  Routes that are freeway along their entire
extent classify immediately; routes that change functional class along
their length are ambiguous and fall to step two, a proximity test of
the crash coordinates against the route's polylines (within the
threshold, 400 m by default and inclusive, the crash is on the
freeway).

Geometry: point-to-polyline distance uses a local planar
(equirectangular) projection per leg to find the nearest point (vertex
or perpendicular foot), then the haversine distance to that point.
Sub-meter accurate at city scale.  Coordinates are (lat, lon) degrees;
no antimeridian handling (the study areas are far from it).

Names: ``FreewaySegmentIndex.match_road_name`` matches each distinct raw
road name once per index and keeps the result, with the decisions
without a distance that the name can lead to (see ``decide_road``);
``normalize_road_name`` and the route patterns stay the only definition
of a match.

Search: ``FreewaySegmentIndex`` packs the bounding boxes of a route's
segments into a sort-tile-recursive tree of 16 entries per node, on
that route's first query (a query without a route uses a tree over all
segments; a route of at most 16 segments is a single node).  One
best-first walk visits nodes and segments nearest box first, by a
lower bound on the haversine to any point of each box, and stops at the
first whose bound is past the best distance so far; each visited leg is
measured from constants computed on its segment's first visit.  Nothing
of the search is built in the constructor.  Every distance it returns
equals, bit for bit, the minimum of ``polyline_distance_m`` over the
same segments, which stays the public reference.

The run asks only whether a crash is within the threshold
(``FreewaySegmentIndex.within``, through ``decide_road``): the same walk,
given the threshold, prunes every box past it and returns at the first
leg inside it, and its answer equals the nearest distance compared with
the threshold.  It skips a box wholly outside a band around the point,
taken from the threshold once per query, before bounding it.
``classify_road`` and ``crashbench classify-roads`` still report the
exact nearest distance.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .model import (
    ConfigError,
    CrashBenchError,
    CrashRecord,
    DataError,
    IdentityEnum,
    LatLon,
    RoadClass,
    check_names,
    ini_sections,
    read_ini,
    valid_coordinate,
)

EARTH_RADIUS_M = 6371000.0
DEFAULT_PROXIMITY_THRESHOLD_M = 400.0


class NoSegmentsError(CrashBenchError):
    """Distance query over an empty (possibly filtered) segment set."""


def haversine_m(a: LatLon, b: LatLon) -> float:
    """Great-circle distance between two points, meters."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def point_leg_distance_m(point: LatLon, v1: LatLon, v2: LatLon) -> float:
    """Distance from a point to one polyline leg.

    The leg's neighborhood is projected to a plane (equirectangular,
    centered on the leg midpoint), the nearest point on the leg is found
    there (clamped perpendicular foot), mapped back, and measured with
    the haversine.  The projection is affine in (lat, lon), so the foot
    always lies between the input vertices.
    """
    lat0 = math.radians((v1.lat + v2.lat) / 2.0)
    lon0 = math.radians((v1.lon + v2.lon) / 2.0)
    cos0 = math.cos(math.radians((v1.lat + v2.lat) / 2.0))

    def project(p: LatLon) -> tuple[float, float]:
        return (
            EARTH_RADIUS_M * (math.radians(p.lon) - lon0) * cos0,
            EARTH_RADIUS_M * (math.radians(p.lat) - lat0),
        )

    px, py = project(point)
    x1, y1 = project(v1)
    x2, y2 = project(v2)
    dx, dy = x2 - x1, y2 - y1
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return haversine_m(point, v1)
    t = ((px - x1) * dx + (py - y1) * dy) / length_sq
    t = min(1.0, max(0.0, t))
    foot = LatLon(
        lat=v1.lat + t * (v2.lat - v1.lat),
        lon=v1.lon + t * (v2.lon - v1.lon),
    )
    return haversine_m(point, foot)


def polyline_distance_m(point: LatLon, polyline: Sequence[LatLon]) -> float:
    """Minimum distance from a point to a polyline, meters."""
    if len(polyline) < 2:
        raise ValueError("polyline needs at least two vertices")
    return min(
        point_leg_distance_m(point, polyline[i], polyline[i + 1])
        for i in range(len(polyline) - 1)
    )


@dataclass(frozen=True)
class FreewaySegment:
    """A named freeway polyline feature.

    ``bbox`` is the polyline's (lat_lo, lon_lo, lat_hi, lon_hi), computed
    once here after the polyline is checked (at least two vertices, no
    vertex repeated next to itself)."""

    route_id: str
    polyline: tuple[LatLon, ...]
    display_names: tuple[str, ...] = ()
    always_freeway: bool = False
    bbox: tuple[float, float, float, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.polyline) < 2:
            raise DataError(f"segment {self.route_id}: fewer than 2 vertices")
        for a, b in zip(self.polyline, self.polyline[1:]):
            if a == b:
                raise DataError(f"segment {self.route_id}: repeated consecutive vertex {a}")
        lats, lons = zip(*self.polyline)
        object.__setattr__(self, "bbox", (min(lats), min(lons), max(lats), max(lons)))


# --- road-name normalization and route patterns ---------------------------

_DIRECTIONAL_TOKENS = frozenset(
    "N S E W NB SB EB WB NORTHBOUND SOUTHBOUND EASTBOUND WESTBOUND "
    "NORTH SOUTH EAST WEST".split()
)

# Route-number recognition: each pattern maps a normalized name to a
# canonical route key.  Order matters (interstate and US forms before the
# generic state-prefix form).
DEFAULT_ROUTE_PATTERNS: tuple[tuple[str, str], ...] = (
    (r"^(?:I|IH|INTERSTATE)\s*0*(\d+)$", "I-{0}"),
    (r"^(?:US|U\s*S|US\s*HWY|US\s*HIGHWAY|US\s*ROUTE|US\s*RTE)\s*0*(\d+)$", "US-{0}"),
    (r"^(?:LOOP|LP)\s*0*(\d+)$", "LOOP-{0}"),
    (
        r"^(?:SR|SH|STATE\s*ROUTE|STATE\s*RTE|STATE\s*HWY|STATE\s*HIGHWAY|"
        r"ROUTE|RTE|HWY|HIGHWAY|[A-Z]{2})\s*0*(\d+)$",
        "SR-{0}",
    ),
)


# DEFAULT_ROUTE_PATTERNS compiled, and the folds of normalize_road_name.
_ROUTE_PATTERNS = tuple((re.compile(pattern), template)
                        for pattern, template in DEFAULT_ROUTE_PATTERNS)
_BOUND_SLASH = re.compile(r"([NSEW])\s*/\s*B\b")
_NOT_ALPHANUMERIC = re.compile(r"[^A-Z0-9]+")


def normalize_road_name(name: str) -> str:
    """Uppercase, fold punctuation to spaces, and strip trailing
    directional suffixes ("I-280 N/B" -> "I 280")."""
    text = name.upper()
    text = _BOUND_SLASH.sub(r"\1B", text)  # N/B -> NB
    text = _NOT_ALPHANUMERIC.sub(" ", text).strip()
    tokens = text.split()
    while tokens and tokens[-1] in _DIRECTIONAL_TOKENS and len(tokens) > 1:
        tokens.pop()
    return " ".join(tokens)


class MatchKind(IdentityEnum):
    NON_FREEWAY = "NonFreeway"
    ALWAYS_FREEWAY = "AlwaysFreeway"
    AMBIGUOUS = "Ambiguous"


@dataclass(frozen=True)
class NameMatch:
    kind: MatchKind
    route_id: Optional[str] = None


class Provenance(IdentityEnum):
    BY_NAME_ALWAYS = "ByNameAlways"
    BY_PROXIMITY = "ByProximity"
    BY_NAME_NON_FREEWAY = "ByNameNonFreeway"
    UNRESOLVABLE = "Unresolvable"


class RoadClassification(NamedTuple):
    road_class: RoadClass
    provenance: Provenance
    route_id: Optional[str] = None
    distance_m: Optional[float] = None


class _NameDecisions(NamedTuple):
    """A raw road name's match and every decision without a distance it
    can lead to: by the name alone (None for an ambiguous name); for an
    ambiguous name, without coordinates (Unresolvable) and by proximity
    off and on the freeway."""

    match: NameMatch
    by_name: Optional[RoadClassification]
    unresolvable: Optional[RoadClassification] = None
    off_freeway: Optional[RoadClassification] = None
    on_freeway: Optional[RoadClassification] = None


_NON_FREEWAY_NAME = _NameDecisions(
    NameMatch(MatchKind.NON_FREEWAY),
    RoadClassification(RoadClass.SURFACE_STREET, Provenance.BY_NAME_NON_FREEWAY),
)


def _route_decisions(route_id: str, always_freeway: bool) -> _NameDecisions:
    """The decisions shared by every name of a freeway route."""
    if always_freeway:
        return _NameDecisions(
            NameMatch(MatchKind.ALWAYS_FREEWAY, route_id),
            RoadClassification(RoadClass.FREEWAY, Provenance.BY_NAME_ALWAYS, route_id),
        )
    return _NameDecisions(
        NameMatch(MatchKind.AMBIGUOUS, route_id),
        None,
        RoadClassification(RoadClass.SURFACE_STREET, Provenance.UNRESOLVABLE, route_id),
        RoadClassification(RoadClass.SURFACE_STREET, Provenance.BY_PROXIMITY, route_id),
        RoadClassification(RoadClass.FREEWAY, Provenance.BY_PROXIMITY, route_id),
    )


# --- proximity search -------------------------------------------------------

_LEG_FIELDS = 12  # values _leg_constants stores per leg
_TWO_R = 2.0 * EARTH_RADIUS_M
# Past this distance sin^2(d / 2R) stops growing, so a threshold there
# bounds nothing.
_HALF_CIRCUMFERENCE_M = math.pi * EARTH_RADIUS_M


def _leg_constants(polyline: Sequence[LatLon]) -> array:
    """Everything ``point_leg_distance_m`` derives from a leg alone, for
    each leg of the polyline: the projection center (lat0, lon0 radians,
    cos0), the projected first vertex (x1, y1), the projected leg (dx,
    dy, length_sq), and the first vertex with the leg's extent in degrees
    (for the foot).  Each value is computed by the same operations, in
    the same order, as there (``cos0`` is the cosine of ``lat0``, which
    is the radians of the mid-latitude there too)."""
    radians, cos, r = math.radians, math.cos, EARTH_RADIUS_M
    out = array("d")
    for (lat1, lon1), (lat2, lon2) in zip(polyline, polyline[1:]):
        lat0 = radians((lat1 + lat2) / 2.0)
        lon0 = radians((lon1 + lon2) / 2.0)
        cos0 = cos(lat0)
        x1 = r * (radians(lon1) - lon0) * cos0
        y1 = r * (radians(lat1) - lat0)
        dx = r * (radians(lon2) - lon0) * cos0 - x1
        dy = r * (radians(lat2) - lat0) - y1
        out.extend(
            (lat0, lon0, cos0, x1, y1, dx, dy, dx * dx + dy * dy,
             lat1, lon1, lat2 - lat1, lon2 - lon1)
        )
    return out


# Slack of the box bound's stop, past the best ``h`` (see ``_nearest``).
_STOP_SLACK_REL = 1.0 + 1e-9
_STOP_SLACK_ABS = 1e-14
# Longitude reach, radians, past which sin^2(dlon / 2) may shrink again
# (it grows only up to a half turn); a query reaching further bounds by
# latitude alone.
_MONOTONE_LON_REACH = 3.0
# Widening of the reach band's edges, radians (see ``_nearest``).
_BAND_SLACK_REL = 1.0 + 1e-6
_BAND_SLACK_ABS = 1e-12


def _radian_box(bbox: tuple[float, float, float, float]) -> tuple[float, ...]:
    """A segment's bounding box in radians, plus the smallest cosine over
    its latitudes: cos is concave on [-pi/2, pi/2], so it is the smaller
    of the two edge cosines."""
    lat_lo, lon_lo, lat_hi, lon_hi = map(math.radians, bbox)
    return lat_lo, lon_lo, lat_hi, lon_hi, min(math.cos(lat_lo), math.cos(lat_hi))


# Entries per node of a route's box tree.
_FANOUT = 16


def _cover(entries: Sequence[tuple]) -> tuple[float, ...]:
    """The radian box covering the entries' boxes, with the smallest of
    their cosines, so it bounds no higher than any of them."""
    lat_lo, lon_lo, lat_hi, lon_hi, cos_min = zip(*(box for box, _ in entries))
    return min(lat_lo), min(lon_lo), max(lat_hi), max(lon_hi), min(cos_min)


def _pack(entries: list[tuple]) -> tuple:
    """Sort-tile-recursive packing of ``(box, payload)`` entries, a
    payload being a segment's index, into nodes of at most ``_FANOUT``
    entries.  A node's payload is its own list of entries.  Each level
    sorts its entries by box center latitude, cuts them into about
    sqrt(nodes) slices, and groups each slice by center longitude; levels
    are packed until one node is left.  Returns the root entry."""
    while len(entries) > _FANOUT:
        slices = math.ceil(math.sqrt(math.ceil(len(entries) / _FANOUT)))
        per_slice = slices * _FANOUT
        entries.sort(key=lambda entry: entry[0][0] + entry[0][2])  # center latitude
        nodes = []
        for start in range(0, len(entries), per_slice):
            tile = entries[start:start + per_slice]
            tile.sort(key=lambda entry: entry[0][1] + entry[0][3])  # center longitude
            for first in range(0, len(tile), _FANOUT):
                group = tile[first:first + _FANOUT]
                nodes.append((_cover(group), group))
        entries = nodes
    return _cover(entries), entries


class FreewaySegmentIndex:
    """Freeway polylines plus the machinery to query them: a name
    matcher (alias table + route-number patterns) that keeps each raw
    name's match, and for proximity tests one box tree per route, packed
    sort-tile-recursive from its segments' bounding boxes with
    ``_FANOUT`` entries per node, and cached leg constants.  A route of
    at most ``_FANOUT`` segments is a single node, scanned whole.  All of
    these are filled on first use, so an index costs nothing for names
    and routes no record mentions."""

    def __init__(
        self,
        segments: Iterable[FreewaySegment],
        aliases: Optional[dict[str, Sequence[str]]] = None,
    ):
        self.segments: tuple[FreewaySegment, ...] = tuple(segments)

        self._route_segments: dict[str, list[int]] = {}
        for idx, seg in enumerate(self.segments):
            self._route_segments.setdefault(seg.route_id, []).append(idx)
        # A route is always-freeway only if every one of its features is.
        self._route_always = {
            rid: all(self.segments[i].always_freeway for i in idxs)
            for rid, idxs in self._route_segments.items()
        }

        self._canonical: dict[str, str] = {}
        for rid in self._route_segments:
            key = self._canonical_key(normalize_road_name(rid))
            if key is None:
                key = normalize_road_name(rid)
            self._register_canonical(key, rid)

        self._aliases: dict[str, str] = {}
        for seg in self.segments:
            for name in seg.display_names:
                self._register_alias(name, seg.route_id)
        for rid, names in (aliases or {}).items():
            if rid not in self._route_segments:
                raise ConfigError(f"alias table references unknown route {rid!r}")
            for name in names:
                self._register_alias(name, rid)

        # Built on first use: each raw road name's match and decisions
        # (shared by the names of one route), the root of one box tree per
        # route queried (key None: all segments), and each segment's leg
        # constants.
        self._names: dict[str, _NameDecisions] = {}
        self._routes: dict[str, _NameDecisions] = {}
        self._trees: dict[Optional[str], tuple] = {}
        self._legs: list[Optional[array]] = [None] * len(self.segments)

    def _register_canonical(self, key: str, route_id: str) -> None:
        existing = self._canonical.get(key)
        if existing is not None and existing != route_id:
            raise ConfigError(f"routes {existing!r} and {route_id!r} collide on key {key!r}")
        self._canonical[key] = route_id

    def _register_alias(self, name: str, route_id: str) -> None:
        norm = normalize_road_name(name)
        if not norm:
            return
        existing = self._aliases.get(norm)
        if existing is not None and existing != route_id:
            raise ConfigError(
                f"alias {name!r} resolves to both {existing!r} and {route_id!r}"
            )
        self._aliases[norm] = route_id

    def _canonical_key(self, normalized: str) -> Optional[str]:
        for pattern, template in _ROUTE_PATTERNS:
            m = pattern.match(normalized)
            if m:
                return template.format(*m.groups())
        return None

    def match_road_name(self, name: str) -> NameMatch:
        """Resolve a free-text road name to a freeway route, if any.

        Alias table first, then route-number patterns; anything
        unmatched is a non-freeway name.  Each distinct raw name is
        matched once per index: the result is kept, like the route
        trees, and returned again for every later record with that name.
        """
        return self._decisions(name).match

    def _decisions(self, name: str) -> _NameDecisions:
        """The raw name's match and decisions, built when the name is
        first matched: one for every non-freeway name, and one per route
        for the names of a freeway route."""
        decisions = self._names.get(name)
        if decisions is None:
            route_id = self._route_of(name)
            if route_id is None:
                decisions = _NON_FREEWAY_NAME
            else:
                decisions = self._routes.get(route_id)
                if decisions is None:
                    decisions = self._routes[route_id] = _route_decisions(
                        route_id, self._route_always[route_id]
                    )
            self._names[name] = decisions
        return decisions

    def _route_of(self, name: str) -> Optional[str]:
        """The freeway route a raw road name names, or None."""
        norm = normalize_road_name(name or "")
        if not norm:
            return None
        route_id = self._aliases.get(norm)
        if route_id is None:
            key = self._canonical_key(norm)
            if key is not None:
                route_id = self._canonical.get(key)
        return route_id

    def distance_to_nearest(
        self, point: LatLon, route_id: Optional[str] = None
    ) -> float:
        """Minimum distance from the point to any segment (optionally
        restricted to one route), meters.  Exact: equals, bit for bit,
        the minimum of ``polyline_distance_m`` over the same segments.

        The search runs on a box tree over the route's own segments (over
        all segments without a route), packed on the route's first query
        (``_nearest``)."""
        return self._nearest(point, self._tree(route_id))

    def within(
        self, point: LatLon, threshold_m: float, route_id: Optional[str] = None
    ) -> bool:
        """Whether the point lies within threshold_m (inclusive) of any
        segment (optionally restricted to one route).  Exact: equals
        ``distance_to_nearest(point, route_id) <= threshold_m``.

        The same walk as ``distance_to_nearest``, given the threshold:
        it returns at the first leg inside it and prunes every box whose
        bound is past it (``_nearest``), so it measures fewer legs."""
        return self._nearest(point, self._tree(route_id), threshold_m) <= threshold_m

    def _tree(self, route_id: Optional[str]) -> tuple:
        """The route's box tree (all segments without a route), packed
        on its first query."""
        tree = self._trees.get(route_id)
        if tree is None:
            if route_id is None:
                members: Sequence[int] = range(len(self.segments))
            else:
                members = self._route_segments.get(route_id, ())
            if not members:
                raise NoSegmentsError(
                    f"no segments for route {route_id!r}" if route_id else "empty index"
                )
            tree = self._trees[route_id] = _pack(
                [(_radian_box(self.segments[i].bbox), i) for i in members]
            )
        return tree

    def _nearest(
        self, point: LatLon, tree: tuple, threshold_m: Optional[float] = None
    ) -> float:
        """``min(polyline_distance_m(point, s.polyline))`` over the
        segments of the tree, by one best-first walk: a heap of nodes and
        segments ordered by their box bound (ties broken by the order of
        entry), seeded with the root.  A popped node pushes those of its
        entries whose bound is not already past the stop; a popped
        segment has its legs measured.  The walk stops at the first entry
        whose bound shows it cannot hold a closer leg.

        With a threshold, the walk answers only whether that minimum is
        within it: it returns the first leg distance ``<= threshold_m``
        it measures (the minimum can only be smaller), and it starts with
        the stop at ``h = sin^2(threshold_m / 2R)``, the haversine term
        of the threshold, so every box past it is pruned.  Otherwise it
        returns the smallest distance it measured, or inf, both past the
        threshold: what it returns is within the threshold exactly when
        the minimum is.  A threshold of a half circumference (pi * R) or
        more, where ``sin^2`` stops growing, prunes nothing, and neither
        does one that is negative or NaN, which no distance is within.

        Legs are measured from their leg constants: the point's radians
        and cosine are computed once, and every remaining operation of
        ``point_leg_distance_m`` and ``haversine_m`` runs in the same
        order, so each leg distance is bit-identical.  The minimum is
        too, because the walk stops only where no leg can be closer.

        For every point q of a box,
        ``h(p, q) >= sin^2(dlat/2) + cos(rlat) * cos_min * sin^2(dlon/2)``,
        where h is the haversine term, dlat and dlon are the point's gaps
        to the box and cos_min the smallest cosine over its latitudes (a
        node's is the smallest of its entries', and its box covers theirs,
        so every leg below a node lies in its box):
        sin^2(x/2) grows with the gap up to a half turn (so a query
        spanning more longitude than ``_MONOTONE_LON_REACH`` from the
        tree's box drops the longitude term) and cos(q.lat) >= cos_min.
        The walk stops at the first entry whose bound exceeds the smallest
        ``h`` so far (or the threshold's) by a relative 1e-9 plus an
        absolute 1e-14.  The relative part covers rounding in ``h``, in
        the bound and in the threshold's ``sin^2`` (a few ulp), and
        leaves every leg past the stop with an ``h`` some 1e-9 (relative)
        above the best one: ``sqrt`` is correctly rounded and
        ``asin(x) / x`` grows on (0, 1], so its exact distance is some
        5e-10 larger, far beyond the few ulp by which libm's ``asin`` may
        err (monotonicity of ``asin`` is not assumed).  For the
        threshold's ``h`` the same holds of ``2R * asin(sqrt(h))``, which
        is ``threshold_m`` below a half circumference.  The absolute part
        covers the foot ``vlat + t * dlat`` rounding an ulp or two outside
        its box (at a pole, past it, making cos(lat) a hair negative):
        that moves ``h`` by at most a few 1e-15, whatever the gap, which
        a relative slack cannot cover near a zero bound.

        A starting stop s below 1 (a threshold under about a half
        circumference) also gives a reach band, taken once per query: a
        latitude reach ``2 * asin(sqrt(s))`` and, when the longitude term
        is kept (``cos(rlat) > 0``) and the root's cos_min is positive, a
        longitude reach ``2 * asin(sqrt(s / (cos(rlat) * cos_min)))``
        (none when that ratio is 1 or more), each widened by a relative
        1e-6 plus 1e-12 rad.  An entry whose box lies wholly outside the
        band (its latitude gap past the first reach, or its longitude gap
        past the second) is skipped before its bound is computed.  This
        is exact: sin^2(x/2) grows with the gap (a latitude gap is at most
        a half turn, a kept longitude gap below ``_MONOTONE_LON_REACH``)
        and no entry's cos_min is below the root's, so one term of that
        entry's bound alone is past s by a relative 2e-6 or more, some 1e9
        times the few ulp by which ``asin``, ``sqrt``, ``sin`` and the
        bound's products may err; the absolute 1e-12 covers the rounding
        of the band's edges, ``rlat +- reach`` (an ulp of a few radians).
        So its computed bound exceeds s, and it would not have been
        pushed.  The stop only falls during the walk, so the band of the
        starting stop stays conservative: the entries pushed, the heap
        order, the legs measured and every distance are those of the walk
        without it.
        """
        radians, cos, sin, asin, sqrt = math.radians, math.cos, math.sin, math.asin, math.sqrt
        rlat, rlon = radians(point.lat), radians(point.lon)
        cos_rlat = cos(rlat)
        (_, rlon_lo, _, rlon_hi, root_cos_min), root = tree
        reach = max(rlon - rlon_lo, rlon_hi - rlon)
        lon_weight = cos_rlat if reach < _MONOTONE_LON_REACH else 0.0

        # A leg this close ends the walk; without a threshold none does.
        accept = -math.inf if threshold_m is None else threshold_m
        best = best_h = math.inf
        if 0.0 <= accept < _HALF_CIRCUMFERENCE_M:
            best_h = sin(accept / _TWO_R) ** 2
        stop_above = best_h * _STOP_SLACK_REL + _STOP_SLACK_ABS

        # The reach band: an entry whose box lies wholly outside it is
        # bounded past the starting stop, so it is skipped before any
        # trigonometry.
        south = west = -math.inf
        north = east = math.inf
        if stop_above < 1.0:
            band = 2.0 * asin(sqrt(stop_above)) * _BAND_SLACK_REL + _BAND_SLACK_ABS
            south, north = rlat - band, rlat + band
            if lon_weight > 0.0 and root_cos_min > 0.0:
                weight = lon_weight * root_cos_min
                if stop_above < weight:
                    band = (2.0 * asin(sqrt(stop_above / weight)) * _BAND_SLACK_REL
                            + _BAND_SLACK_ABS)
                    west, east = rlon - band, rlon + band

        legs_of = self._legs
        heap = [(0.0, 0, root)]
        pushed = 1
        while heap:
            bound, _, payload = heappop(heap)
            if bound > stop_above:
                break
            if type(payload) is list:
                for (lat_lo, lon_lo, lat_hi, lon_hi, cos_min), entry in payload:
                    if lat_lo > north or lat_hi < south or lon_lo > east or lon_hi < west:
                        continue
                    lat_gap = (lat_lo - rlat if rlat < lat_lo
                               else rlat - lat_hi if rlat > lat_hi else 0.0)
                    lon_gap = (lon_lo - rlon if rlon < lon_lo
                               else rlon - lon_hi if rlon > lon_hi else 0.0)
                    bound = (sin(lat_gap / 2.0) ** 2
                             + lon_weight * cos_min * sin(lon_gap / 2.0) ** 2)
                    if bound <= stop_above:
                        heappush(heap, (bound, pushed, entry))
                        pushed += 1
                continue
            legs = legs_of[payload]
            if legs is None:
                legs = legs_of[payload] = _leg_constants(self.segments[payload].polyline)
            fields = iter(legs)
            for lat0, lon0, cos0, x1, y1, dx, dy, length_sq, vlat, vlon, dlat, dlon in zip(
                *[fields] * _LEG_FIELDS
            ):
                if length_sq == 0.0:
                    foot_lat, foot_lon = vlat, vlon
                else:
                    px = EARTH_RADIUS_M * (rlon - lon0) * cos0
                    py = EARTH_RADIUS_M * (rlat - lat0)
                    t = ((px - x1) * dx + (py - y1) * dy) / length_sq
                    t = t if t > 0.0 else 0.0  # max(0.0, t)
                    t = t if t < 1.0 else 1.0  # min(1.0, t)
                    foot_lat, foot_lon = vlat + t * dlat, vlon + t * dlon
                lat2 = radians(foot_lat)
                h = (
                    sin((lat2 - rlat) / 2.0) ** 2
                    + cos_rlat * cos(lat2) * sin((radians(foot_lon) - rlon) / 2.0) ** 2
                )
                distance = _TWO_R * asin(sqrt(h))
                if distance <= accept:
                    return distance
                if distance < best:
                    best = distance
                if h < best_h:
                    best_h = h
                    stop_above = h * _STOP_SLACK_REL + _STOP_SLACK_ABS
        return best


def classify_road(
    record: CrashRecord,
    index: FreewaySegmentIndex,
    threshold_m: float = DEFAULT_PROXIMITY_THRESHOLD_M,
    any_route: bool = False,
) -> RoadClassification:
    """Classify one crash as freeway or surface street.

    Non-freeway names classify immediately, as do names of routes that
    are freeway everywhere.  An ambiguous name needs coordinates: the
    crash is on the freeway iff it lies within threshold_m (inclusive)
    of the matched route's polylines (or of any freeway, with
    any_route), and ``distance_m`` is its exact nearest distance.
    Ambiguous names without coordinates fall to surface street, tagged
    unresolvable so the bucket can be quantified.  Each classification
    by proximity is built for its distance; the others are the shared
    decisions of ``decide_road``.
    """
    return _classify(record, index, threshold_m, any_route, measure=True)


def decide_road(
    record: CrashRecord,
    index: FreewaySegmentIndex,
    threshold_m: float = DEFAULT_PROXIMITY_THRESHOLD_M,
    any_route: bool = False,
) -> RoadClassification:
    """``classify_road`` without the distance: the same road class,
    provenance and route, but an ambiguous located crash is decided by
    ``FreewaySegmentIndex.within``, which stops at the first leg inside
    the threshold, and ``distance_m`` is None.  The run reads only the
    decision.

    No decision carries a distance, so none is built per crash: each is
    one of the index's shared values, built when a name is first
    matched.  Every non-freeway name shares one decision; each freeway
    route has one for its always-freeway names, or for an ambiguous
    route one without coordinates (Unresolvable) and one by proximity
    per road class, shared by all the route's names.  Nothing may rely
    on their identity: a decision equals any other with the same fields.
    """
    return _classify(record, index, threshold_m, any_route, measure=False)


def _classify(
    record: CrashRecord,
    index: FreewaySegmentIndex,
    threshold_m: float,
    any_route: bool,
    measure: bool,
) -> RoadClassification:
    """The name steps of ``classify_road`` and ``decide_road``, then the
    proximity step: measured (``distance_to_nearest``) or only decided
    (``within``)."""
    match, by_name, unresolvable, off_freeway, on_freeway = index._decisions(
        record.primary_road_name
    )
    if by_name is not None:
        return by_name
    location = record.location
    if location is None:
        return unresolvable
    route_id = None if any_route else match.route_id
    if not measure:
        on = index.within(location, threshold_m, route_id=route_id)
        return on_freeway if on else off_freeway
    distance = index.distance_to_nearest(location, route_id=route_id)
    road = RoadClass.FREEWAY if distance <= threshold_m else RoadClass.SURFACE_STREET
    return RoadClassification(
        road, Provenance.BY_PROXIMITY, route_id=match.route_id, distance_m=distance
    )


# --- input files ------------------------------------------------------------


def load_segments_geojson(path: str | Path) -> list[FreewaySegment]:
    """Read freeway segments from a GeoJSON FeatureCollection of
    LineStrings with properties route_id, names[], always_freeway.
    GeoJSON coordinate order is (lon, lat).  Each feature is checked in
    one pass over its positions.  A ``route_id`` that is absent or null,
    or not a JSON string with a non-blank character, is a ConfigError
    naming the file, the feature number and the value.  A ConfigError
    naming the file, feature and route is raised for ``names`` that are
    neither absent, null nor a
    list of strings, for an ``always_freeway`` that is present but not a
    JSON boolean, and for a position that is not two numbers with lon in
    [-180, 180] and lat in [-90, 90], a position equal to the one before
    it, or fewer than two positions.  A file that is not UTF-8 text (a byte-order mark is
    dropped), not JSON or not shaped as such a FeatureCollection is a
    ConfigError too."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed GeoJSON ({exc})") from None
    features = doc.get("features") if type(doc) is dict else None
    if type(features) is not list:
        raise ConfigError(f"{path}: not a FeatureCollection")
    segments = []
    for number, feature in enumerate(features):
        geom = (feature.get("geometry") if type(feature) is dict else None) or {}
        if type(geom) is not dict or geom.get("type") != "LineString":
            raise ConfigError(f"{path}: only LineString features are supported")
        props = feature.get("properties") or {}
        route_id = props.get("route_id") if type(props) is dict else None
        if route_id is None:
            raise ConfigError(f"{path}: feature missing route_id (feature {number})")
        if type(route_id) is not str or not route_id.strip():
            raise ConfigError(
                f"{path}: feature {number}: route_id {route_id!r} is not a non-blank string"
            )
        names = props.get("names")
        if names is not None and (
            type(names) is not list or any(type(name) is not str for name in names)
        ):
            raise ConfigError(
                f"{path}: feature {number} ({route_id}): names {names!r} are not a list "
                f"of strings"
            )
        always_freeway = props.get("always_freeway", False)
        if type(always_freeway) is not bool:
            raise ConfigError(
                f"{path}: feature {number} ({route_id}): always_freeway {always_freeway!r} "
                f"is not true or false"
            )
        coordinates = geom.get("coordinates", [])
        if type(coordinates) is not list:
            raise ConfigError(
                f"{path}: feature {number} ({route_id}): coordinates {coordinates!r} "
                f"are not a list of positions"
            )
        polyline: list[LatLon] = []
        previous = None
        for index, position in enumerate(coordinates):
            # The range check also rejects, across most of the US,
            # positions written in (lat, lon) order.
            if type(position) is list and len(position) == 2:
                lon, lat = position
                if (
                    type(lon) in (int, float)
                    and type(lat) in (int, float)
                    and valid_coordinate(lat, lon)
                ):
                    vertex = LatLon(lat, lon)
                    if vertex != previous:
                        polyline.append(vertex)
                        previous = vertex
                        continue
                    raise ConfigError(
                        f"{path}: feature {number} ({route_id}): position {index} "
                        f"{position!r} repeats the position before it"
                    )
            raise ConfigError(
                f"{path}: feature {number} ({route_id}): position {index} {position!r} "
                f"is not [lon, lat] with lon in [-180, 180] and lat in [-90, 90]"
            )
        if len(polyline) < 2:
            raise ConfigError(
                f"{path}: feature {number} ({route_id}): {len(polyline)} position(s); "
                f"a LineString needs at least 2"
            )
        segments.append(
            FreewaySegment(
                route_id=route_id,
                polyline=tuple(polyline),
                display_names=tuple(names or ()),
                always_freeway=always_freeway,
            )
        )
    return segments


def load_alias_table(path: str | Path) -> dict[str, list[str]]:
    """Read the route alias table: an [aliases] section mapping
    route_id -> comma-separated local names, read literally ('%' is not
    an interpolation marker).  Any other section, [DEFAULT] with options
    included, is a ConfigError naming it."""
    parser = read_ini(path, "alias table")  # route ids keep their case
    check_names(path, None, ini_sections(parser), ("aliases",), "section")
    if not parser.has_section("aliases"):
        raise ConfigError(f"{path}: missing [aliases] section")
    return {
        route_id: [alias.strip() for alias in raw.split(",") if alias.strip()]
        for route_id, raw in parser.items("aliases")
    }
