import dataclasses
import json
import math
import random
import re

import pytest

from crashbench.model import ConfigError, CrashRecord, DataError, KabcoLevel, LatLon, RoadClass
from crashbench import pipeline, roadclass
from crashbench.roadclass import (
    DEFAULT_PROXIMITY_THRESHOLD_M,
    EARTH_RADIUS_M,
    _MONOTONE_LON_REACH,
    FreewaySegment,
    FreewaySegmentIndex,
    MatchKind,
    NoSegmentsError,
    Provenance,
    classify_road,
    decide_road,
    haversine_m,
    load_alias_table,
    load_segments_geojson,
    normalize_road_name,
    point_leg_distance_m,
    polyline_distance_m,
)


def record_named(name, location=None):
    return CrashRecord(
        crash_id="R1",
        state="CA",
        county="SAN FRANCISCO",
        year=2023,
        worst_injury=KabcoLevel.O,
        location=location,
        primary_road_name=name,
    )


@pytest.fixture()
def sf_index():
    """Index mirroring the canonical narrative: I-280 is a freeway along
    its whole extent, US-101 changes functional class along the road."""
    i280 = FreewaySegment(
        route_id="I-280",
        polyline=(LatLon(37.70, -122.46), LatLon(37.75, -122.42)),
        always_freeway=True,
    )
    us101 = FreewaySegment(
        route_id="US-101",
        polyline=(LatLon(37.70, -122.405), LatLon(37.78, -122.405)),
        always_freeway=False,
    )
    return FreewaySegmentIndex([i280, us101])


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("I-280 N/B", "I 280"),
            ("US-101 S/B", "US 101"),
            ("  i-35  sb ", "I 35"),
            ("MOPAC EXPY", "MOPAC EXPY"),
            ("MAIN ST.", "MAIN ST"),
            ("LAMAR BLVD NORTHBOUND", "LAMAR BLVD"),
            ("AVENUE B", "AVENUE B"),
            ("N", "N"),  # a lone directional token survives
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize_road_name(raw) == expected


class TestNameMatching:
    def test_always_freeway_with_junk_suffix(self, sf_index):
        match = sf_index.match_road_name("I-280 N/B")
        assert match.kind is MatchKind.ALWAYS_FREEWAY
        assert match.route_id == "I-280"

    def test_ambiguous_route(self, sf_index):
        match = sf_index.match_road_name("US-101")
        assert match.kind is MatchKind.AMBIGUOUS
        assert match.route_id == "US-101"

    def test_local_alias_resolves(self, road_index):
        match = road_index.match_road_name("MOPAC")
        assert match.route_id == "LOOP-1"
        assert match.kind is MatchKind.AMBIGUOUS

    def test_unmatched_is_non_freeway(self, sf_index):
        assert sf_index.match_road_name("ELM AVE").kind is MatchKind.NON_FREEWAY
        assert sf_index.match_road_name("").kind is MatchKind.NON_FREEWAY

    def test_alias_conflict_rejected(self):
        seg_a = FreewaySegment("I-280", (LatLon(37.7, -122.4), LatLon(37.8, -122.4)),
                               display_names=("JUNIPERO SERRA",), always_freeway=True)
        seg_b = FreewaySegment("US-101", (LatLon(37.7, -122.5), LatLon(37.8, -122.5)),
                               display_names=("JUNIPERO SERRA",))
        with pytest.raises(ConfigError):
            FreewaySegmentIndex([seg_a, seg_b])

    def test_alias_for_unknown_route_rejected(self, sf_index):
        seg = FreewaySegment("I-280", (LatLon(37.7, -122.4), LatLon(37.8, -122.4)))
        with pytest.raises(ConfigError):
            FreewaySegmentIndex([seg], aliases={"SR-99": ["VALLEY FWY"]})


class TestNameMemo:
    """Each index keeps the match of every raw name it has seen; a kept
    match must be the one a fresh index computes."""

    PREFIXES = ("I-", "IH ", "interstate ", "US ", "U S HWY ", "US-", "LOOP ", "LP ",
                "SR ", "SH ", "STATE HWY ", "FM ", "TX ", "", "RM ")
    NUMBERS = ("35", "035", "290", "1", "0001", "71", "183", "9")
    SUFFIXES = ("", " N/B", " S / B", " SB", " NORTHBOUND", " E", " west", " N SB", " EXPY")
    OTHERS = ("MOPAC", "mo-pac expy", "MOPAC EXPY", "MOPAC NB", "MAIN ST", "N", "SB", "",
              "   ", "-", "/", "AVENUE B", "None", None, "I", "US", "loop-1", "LOOP-1 ")

    def random_names(self, rng, count):
        names = []
        for _ in range(count):
            if rng.random() < 0.3:
                names.append(rng.choice(self.OTHERS))
            else:
                names.append(rng.choice(self.PREFIXES) + rng.choice(self.NUMBERS)
                             + rng.choice(self.SUFFIXES))
        return names

    @pytest.mark.parametrize("seed", range(4))
    def test_kept_match_equals_fresh_index(self, fixtures_dir, seed):
        segments = load_segments_geojson(fixtures_dir / "roadclass_segments.geojson")
        aliases = load_alias_table(fixtures_dir / "roadclass_aliases.ini")
        rng = random.Random(seed)
        names = self.random_names(rng, 300)
        warm = FreewaySegmentIndex(segments, aliases=aliases)
        kinds = set()
        # The first pass asks each name first once, then again wherever it
        # repeats; the second pass, in another order, only repeats.
        for order in (names, rng.sample(names, len(names))):
            for name in order:
                fresh = FreewaySegmentIndex(segments, aliases=aliases).match_road_name(name)
                assert warm.match_road_name(name) == fresh, name
                kinds.add(fresh.kind)
        assert kinds == set(MatchKind)


class TestAliasTable:
    def test_names_read_literally(self, tmp_path):
        path = tmp_path / "aliases.ini"
        path.write_text("[aliases]\nLOOP-1 = MOPAC 100%, LOOP %(x)s\n")
        assert load_alias_table(path) == {"LOOP-1": ["MOPAC 100%", "LOOP %(x)s"]}

    @pytest.mark.parametrize(
        "text,section",
        [
            ("[DEFAULT]\nI-99 = NOWHERE ROAD\n[aliases]\nI-35 = IH 35\n[other]\nx = 1\n",
             "DEFAULT"),
            ("[aliases]\nI-35 = IH 35\n[other]\nx = 1\n", "other"),
            ("[alias]\nI-35 = IH 35\n", "alias"),
        ],
    )
    def test_other_sections_are_config_errors(self, tmp_path, text, section):
        # [DEFAULT] options used to become aliases, and other sections were ignored.
        path = tmp_path / "aliases.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"aliases\.ini: \[{section}\]: unknown section"):
            load_alias_table(path)


# Network sizes around the box tree's fanout of 16, named by the levels of
# the tree over all segments: one node (scanned whole), two levels, three.
TREE_SIZES = ["at-most-16", "17-to-256", "over-256"]
SEGMENT_COUNTS = {1: (2, 16), 2: (17, 256), 3: (257, 400)}
# The same sizes as (routes, segments per route) ranges for _random_network.
ROUTE_SIZES = {1: ((2, 3), (1, 5)), 2: ((2, 4), (17, 64)), 3: ((2, 3), (130, 180))}


def _levels(tree):
    """The levels of a packed box tree; a root holding segments is one."""
    _, entries = tree
    return 1 if type(entries[0][1]) is int else 1 + _levels(entries[0])


class TestDistance:
    def test_vertex_coincidence_is_zero(self, road_index):
        assert road_index.distance_to_nearest(LatLon(30.32, -97.80)) == 0.0

    def test_meridian_offset_oracle(self):
        # Due-east segment on the equator, point 0.001 deg north: the
        # distance equals the meridian arc R * dphi (haversine oracle).
        seg = FreewaySegment("US-0", (LatLon(0.0, 10.0), LatLon(0.0, 10.01)))
        index = FreewaySegmentIndex([seg])
        expected = EARTH_RADIUS_M * math.radians(0.001)  # 111.19492664455875
        got = index.distance_to_nearest(LatLon(0.001, 10.005))
        assert got == pytest.approx(expected, abs=1e-6)
        assert got == pytest.approx(111.195, abs=1e-3)

    def test_haversine_matches_along_meridian(self):
        a, b = LatLon(0.0, 10.005), LatLon(0.001, 10.005)
        assert haversine_m(a, b) == pytest.approx(EARTH_RADIUS_M * math.radians(0.001), rel=1e-12)

    def test_empty_filter_raises(self, road_index):
        with pytest.raises(NoSegmentsError):
            road_index.distance_to_nearest(LatLon(30.3, -97.7), route_id="SR-99")
        with pytest.raises(NoSegmentsError):
            FreewaySegmentIndex([]).distance_to_nearest(LatLon(0.0, 0.0))

    def test_point_on_route_is_at_zero_distance(self, road_index):
        point = LatLon(30.32, -97.80)
        assert road_index.distance_to_nearest(point) == 0.0

    def test_reversal_symmetry(self):
        rng = random.Random(17)
        for _ in range(50):
            lat0 = rng.uniform(-60, 60)
            lon0 = rng.uniform(-170, 170)
            pts = [
                LatLon(lat0 + rng.uniform(-0.05, 0.05), lon0 + rng.uniform(-0.05, 0.05))
                for _ in range(4)
            ]
            point = LatLon(lat0 + rng.uniform(-0.1, 0.1), lon0 + rng.uniform(-0.1, 0.1))
            forward = polyline_distance_m(point, pts)
            backward = polyline_distance_m(point, list(reversed(pts)))
            assert abs(forward - backward) < 1e-9

    def test_degenerate_leg_falls_back_to_vertex(self):
        v = LatLon(30.0, -97.0)
        assert point_leg_distance_m(LatLon(30.0, -97.0), v, v) == 0.0

    @pytest.mark.parametrize("levels", [1, 2, 3], ids=TREE_SIZES)
    def test_tree_equals_brute_force_randomized(self, levels):
        rng = random.Random(23)
        for _ in range(30):
            segments = []
            for i in range(rng.randint(*SEGMENT_COUNTS[levels])):
                lat = rng.uniform(30.0, 30.5)
                lon = rng.uniform(-98.0, -97.5)
                n = rng.randint(2, 5)
                poly = [LatLon(lat, lon)]
                for _ in range(n - 1):
                    last = poly[-1]
                    poly.append(
                        LatLon(last.lat + rng.uniform(-0.02, 0.02),
                               last.lon + rng.uniform(-0.02, 0.02))
                    )
                segments.append(FreewaySegment(f"SR-{i}", tuple(poly)))
            index = FreewaySegmentIndex(segments)
            for _ in range(5):
                point = LatLon(rng.uniform(29.8, 30.7), rng.uniform(-98.2, -97.3))
                brute = min(polyline_distance_m(point, s.polyline) for s in segments)
                assert index.distance_to_nearest(point) == brute
            assert _levels(index._trees[None]) == levels


def _random_network(rng, routes, per_route=(1, 6)):
    """Segments on several routes; some legs are long and diagonal, so
    their bounding boxes reach far from the polyline."""
    segments = []
    for r in range(routes):
        for _ in range(rng.randint(*per_route)):
            step = rng.choice([0.005, 0.02, 0.1])
            poly = [LatLon(rng.uniform(30.0, 30.5), rng.uniform(-98.0, -97.5))]
            for _ in range(rng.randint(1, 4)):
                last = poly[-1]
                poly.append(LatLon(last.lat + rng.uniform(-step, step),
                                   last.lon + rng.uniform(-step, step)))
            segments.append(FreewaySegment(f"SR-{r}", tuple(poly)))
    return segments


def _query_points(rng, segments, n):
    """Points around the network, at bounding-box corners (near a box, far
    from its polyline), on the polylines, and 5-10 degrees away."""
    points = []
    for _ in range(n):
        draw = rng.random()
        seg = rng.choice(segments)
        if draw < 0.35:
            points.append(LatLon(rng.uniform(29.8, 30.7), rng.uniform(-98.2, -97.3)))
        elif draw < 0.65:
            lat_lo, lon_lo, lat_hi, lon_hi = seg.bbox
            points.append(LatLon(rng.choice((lat_lo, lat_hi)) + rng.uniform(-0.002, 0.002),
                                 rng.choice((lon_lo, lon_hi)) + rng.uniform(-0.002, 0.002)))
        elif draw < 0.8:
            points.append(LatLon(30.25 + rng.choice((-1, 1)) * rng.uniform(5.0, 10.0),
                                 rng.uniform(-100.0, -95.0)))
        else:
            v1, v2 = rng.choice(list(zip(seg.polyline, seg.polyline[1:])))
            t = rng.random()
            points.append(LatLon(v1.lat + t * (v2.lat - v1.lat), v1.lon + t * (v2.lon - v1.lon)))
    return points


class TestSearchIsExact:
    """The tree search and the precomputed leg constants must return the
    reference minimum bit for bit, whatever the order of queries."""

    @pytest.mark.parametrize("levels", [1, 2, 3], ids=TREE_SIZES)
    def test_equals_reference_minimum(self, levels):
        rng = random.Random(f"exact-{levels}")
        routes_range, per_route = ROUTE_SIZES[levels]
        for _ in range(8):
            segments = _random_network(rng, rng.randint(*routes_range), per_route)
            routes: dict[str, list] = {}
            for seg in segments:
                routes.setdefault(seg.route_id, []).append(seg)
            queries = [
                (point, route_id)
                for point in _query_points(rng, segments, 25)
                for route_id in (None, *routes)
            ]
            expected = {
                (point, route_id): min(
                    polyline_distance_m(point, s.polyline)
                    for s in (segments if route_id is None else routes[route_id])
                )
                for point, route_id in queries
            }
            index = FreewaySegmentIndex(segments)
            for point, route_id in queries:
                assert index.distance_to_nearest(point, route_id) == expected[point, route_id]
            assert _levels(index._trees[None]) == levels
            # Lazily packed trees and leg constants: a fresh index queried
            # in another order, and the warm index again, agree exactly.
            fresh = FreewaySegmentIndex(segments)
            for point, route_id in rng.sample(queries, len(queries)):
                assert fresh.distance_to_nearest(point, route_id) == expected[point, route_id]
                assert index.distance_to_nearest(point, route_id) == expected[point, route_id]


class TestWithinIsExact:
    """``within`` stops at the first leg inside the threshold and prunes
    boxes past it, yet must answer exactly
    ``distance_to_nearest(p, r) <= t``: at the distance itself, at its
    neighbouring floats, and past a half circumference, where the
    threshold bounds nothing."""

    @pytest.mark.parametrize("levels", [1, 2, 3], ids=TREE_SIZES)
    def test_equals_nearest_distance_compared(self, levels):
        rng = random.Random(f"within-{levels}")
        routes_range, per_route = ROUTE_SIZES[levels]
        half_turn = math.pi * EARTH_RADIUS_M
        for _ in range(6):
            segments = _random_network(rng, rng.randint(*routes_range), per_route)
            route_ids = (None, *dict.fromkeys(seg.route_id for seg in segments))
            index = FreewaySegmentIndex(segments)
            for point in _query_points(rng, segments, 25):
                for route_id in route_ids:
                    d = index.distance_to_nearest(point, route_id)
                    assert index.within(point, d, route_id), (point, route_id, d)
                    if d > 0.0:
                        below = math.nextafter(d, 0.0)
                        assert not index.within(point, below, route_id), (point, route_id, d)
                    for t in (
                        math.nextafter(d, math.inf),
                        rng.uniform(0.0, 2.0 * d),
                        rng.expovariate(1 / 2000.0),
                        half_turn,
                        math.nextafter(half_turn, 0.0),
                        2.0 * half_turn,  # sin^2 back to about 0
                        rng.uniform(half_turn, 3.0 * half_turn),
                    ):
                        assert index.within(point, t, route_id) is (d <= t), (
                            point, route_id, d, t
                        )
            assert _levels(index._trees[None]) == levels


def _assert_exact(segments, points):
    """Every query, over all segments and over each route, returns the
    reference minimum bit for bit."""
    routes: dict[str, list] = {}
    for seg in segments:
        routes.setdefault(seg.route_id, []).append(seg)
    index = FreewaySegmentIndex(segments)
    for point in points:
        for route_id, members in ((None, segments), *routes.items()):
            expected = min(polyline_distance_m(point, s.polyline) for s in members)
            assert index.distance_to_nearest(point, route_id) == expected, (point, route_id)


class TestBoxBound:
    """The best-first search stops at the first node or segment whose
    lower bound is past the best distance; these cases sit where a bound
    that is too high would show: on boxes, at ties, and across longitude."""

    @pytest.mark.parametrize("levels", [1, 2, 3], ids=TREE_SIZES)
    def test_points_on_vertices_box_edges_and_corners(self, levels):
        rng = random.Random(f"box-{levels}")
        routes_range, per_route = ROUTE_SIZES[levels]
        for _ in range(4):
            segments = _random_network(rng, rng.randint(*routes_range), per_route)
            points = []
            for seg in segments:
                lat_lo, lon_lo, lat_hi, lon_hi = seg.bbox
                points.extend(seg.polyline)
                points.extend(
                    LatLon(lat, lon) for lat in (lat_lo, lat_hi) for lon in (lon_lo, lon_hi)
                )
                points.extend(
                    (LatLon(lat_lo, rng.uniform(lon_lo, lon_hi)),
                     LatLon(rng.uniform(lat_lo, lat_hi), lon_hi))
                )
            _assert_exact(segments, rng.sample(points, min(len(points), 40)))

    def test_same_latitude_far_east_and_west(self):
        # The latitude gap is zero, so the bound rests on its longitude
        # term alone, and tall boxes make cos_min matter: a segment's, and
        # in the larger networks a node's, the smallest of its entries'.
        rng = random.Random("east-west")
        for routes, per_route in ((4, (1, 6)), (2, (17, 64)), (2, (130, 180))):
            segments = _random_network(rng, routes, per_route)
            segments.append(FreewaySegment("SR-90", (LatLon(25.0, -98.0), LatLon(40.0, -96.0))))
            points = []
            for seg in segments:
                lat_lo, _, lat_hi, _ = seg.bbox
                for offset in (0.5, 3.0, 20.0, 90.0, 170.0):
                    for side in (-1.0, 1.0):
                        lon = -97.75 + side * offset
                        lon = lon - 360.0 if lon > 180.0 else lon + 360.0 if lon < -180.0 else lon
                        points.append(LatLon(rng.uniform(lat_lo, lat_hi), lon))
            if len(segments) > 60:  # the tall segment's points, and a sample of the rest
                points = rng.sample(points[:-10], 50) + points[-10:]
            _assert_exact(segments, points)

    def test_across_the_antimeridian(self):
        # From (-32.85, -170.18) the tall segment lies more than half a
        # turn of longitude away on the unwrapped axis, where sin^2(dlon/2)
        # shrinks again: a longitude term would bound it at about
        # 6,730 km, past the 6,724 km segment due north, while it is
        # 6,719 km away.  Near lon 180 small segments sit on both sides.
        tall = FreewaySegment("SR-1", (LatLon(24.32, 169.30), LatLon(59.58, 161.71)))
        north = FreewaySegment("SR-2", (LatLon(27.62, -170.18), LatLon(27.62, -170.17)))
        point = LatLon(-32.85, -170.18)
        assert polyline_distance_m(point, tall.polyline) < polyline_distance_m(
            point, north.polyline
        )
        _assert_exact([tall, north], [point, LatLon(-30.0, -175.0)])
        across = [
            FreewaySegment("SR-3", (LatLon(10.0, 179.80), LatLon(10.01, 179.95))),
            FreewaySegment("SR-4", (LatLon(10.0, -179.79), LatLon(10.01, -179.78))),
        ]
        points = [LatLon(10.0, lon) for lon in (-179.95, -179.9, 179.99, -179.5)]
        _assert_exact(across, points)

    def test_duplicate_and_overlapping_segments(self):
        rng = random.Random("ties")
        base = _random_network(rng, 3)
        segments = list(base)
        for seg in base[:4]:
            segments.append(FreewaySegment(seg.route_id, seg.polyline))  # same route
            segments.append(FreewaySegment("SR-77", tuple(reversed(seg.polyline))))
            segments.append(FreewaySegment("SR-78", seg.polyline[:2]))  # shares a leg
        points = [v for seg in base[:4] for v in seg.polyline]
        points += [
            LatLon(v1.lat + t * (v2.lat - v1.lat), v1.lon + t * (v2.lon - v1.lon))
            for seg in base[:4]
            for v1, v2 in zip(seg.polyline, seg.polyline[1:])
            for t in (0.25, 0.5)
        ]
        points += [LatLon(p.lat + 0.003, p.lon - 0.002) for p in points[:10]]
        _assert_exact(segments, points)

    def test_far_boxes_are_not_measured(self):
        near = FreewaySegment("SR-1", (LatLon(30.0, -97.0), LatLon(30.0, -96.99)))
        far = [
            FreewaySegment(f"SR-{k + 2}", (LatLon(30.006 + 0.0005 * k, -97.0),
                                           LatLon(30.006 + 0.0005 * k, -96.99)))
            for k in range(12)
        ]
        index = FreewaySegmentIndex([near, *far])
        point = LatLon(30.0001, -96.995)
        distance = index.distance_to_nearest(point)
        assert distance == polyline_distance_m(point, near.polyline)
        _, entries = index._trees[None]  # one node, scanned whole: all are candidates
        assert [segment for _, segment in entries] == list(range(13))
        assert index._legs[0] is not None
        assert all(legs is None for legs in index._legs[1:])


def _assert_within_exact(segments, points, thresholds):
    """``within`` over all segments and over each route equals both
    ``distance_to_nearest(p, r) <= t`` and the reference minimum compared
    with t, at each threshold and at the distance and its neighbouring
    floats."""
    routes: dict[str, list] = {}
    for seg in segments:
        routes.setdefault(seg.route_id, []).append(seg)
    index = FreewaySegmentIndex(segments)
    for point in points:
        for route_id, members in ((None, segments), *routes.items()):
            reference = min(polyline_distance_m(point, s.polyline) for s in members)
            distance = index.distance_to_nearest(point, route_id)
            assert distance == reference, (point, route_id)
            for t in (*thresholds, distance, math.nextafter(distance, -math.inf),
                      math.nextafter(distance, math.inf)):
                assert index.within(point, t, route_id) is (reference <= t), (point, route_id, t)


def _latitude_in_radians(target):
    """The latitude, degrees, whose ``math.radians`` is exactly target."""
    lat = math.degrees(target)
    for _ in range(64):
        if math.radians(lat) == target:
            return lat
        lat = math.nextafter(lat, math.inf if math.radians(lat) < target else -math.inf)
    raise AssertionError(f"no latitude in degrees has radians {target!r}")


class TestReachBand:
    """With a threshold, the walk skips every box wholly outside a band
    taken from its starting stop before bounding it; the band must skip
    only boxes the bound would prune.  Each case asks ``within`` where a
    band too narrow would show: at its edge, at a pole, across the
    antimeridian and over tall boxes."""

    HALF_TURN_M = math.pi * EARTH_RADIUS_M

    def test_latitude_gap_at_the_threshold_reach(self):
        # A point due south of an equatorial segment, its latitude gap
        # exactly the threshold's angular reach, and one ulp either side.
        segment = FreewaySegment("SR-1", (LatLon(0.0, 10.0), LatLon(0.0, 10.01)))
        reach = DEFAULT_PROXIMITY_THRESHOLD_M / EARTH_RADIUS_M
        gaps = (math.nextafter(reach, 0.0), reach, math.nextafter(reach, 1.0))
        points = [LatLon(_latitude_in_radians(-gap), 10.005) for gap in gaps]
        index = FreewaySegmentIndex([segment])
        assert [index.within(p, DEFAULT_PROXIMITY_THRESHOLD_M) for p in points] == [
            True, True, False,
        ]
        thresholds = [DEFAULT_PROXIMITY_THRESHOLD_M, *(gap * EARTH_RADIUS_M for gap in gaps)]
        _assert_within_exact([segment], points, thresholds)

    def test_box_touching_a_pole(self):
        # cos(radians(90)) is about 6e-17: the root's cos_min is so small
        # that no stop takes a longitude reach from it.
        segments = [
            FreewaySegment("SR-1", (LatLon(89.99, 0.0), LatLon(90.0, 0.0))),
            FreewaySegment("SR-2", (LatLon(89.995, 90.0), LatLon(89.98, 100.0))),
            FreewaySegment("SR-3", (LatLon(89.9, -120.0), LatLon(89.9, -60.0))),
        ]
        assert FreewaySegmentIndex(segments)._tree(None)[0][4] < 1e-16
        points = [LatLon(lat, lon) for lat in (89.99, 89.995, 89.999, 90.0)
                  for lon in (0.0, 45.0, 95.0, 180.0, -135.0, -90.0)]
        _assert_within_exact(segments, points, (0.0, 100.0, 400.0, 1000.0, 20000.0))

    def test_longitude_reach_past_the_monotone_limit(self):
        # The point's longitude span to each tree reaches past
        # _MONOTONE_LON_REACH, so the walk bounds by latitude alone; the
        # nearest leg end across the antimeridian is some 1.3 km away
        # although its unwrapped longitude gap is nearly a full turn.
        segments = [
            FreewaySegment("SR-1", (LatLon(10.0, 179.99), LatLon(10.01, 179.992))),
            FreewaySegment("SR-2", (LatLon(10.0, -179.995), LatLon(10.01, -179.99))),
            FreewaySegment("SR-2", (LatLon(10.0, -175.0), LatLon(10.01, -174.99))),
        ]
        point = LatLon(10.005, 179.999)
        index = FreewaySegmentIndex(segments)
        (_, lon_lo, _, lon_hi, _), _ = index._tree("SR-2")
        assert math.radians(point.lon) - lon_lo >= _MONOTONE_LON_REACH
        assert index.within(point, 1500.0, "SR-2")
        points = [point, LatLon(10.0, -179.999), LatLon(10.02, 179.9), LatLon(9.99, -179.98)]
        _assert_within_exact(segments, points, (400.0, 1500.0, 2000.0, 50000.0))

    def test_longitude_reach_takes_the_smallest_cosine(self):
        # Each point is 300 m east of a segment at its own latitude; the
        # route's other segment lies on the equator, where the cosine is 1.
        # A longitude reach taken from that cosine would fall short of the
        # high-latitude segment.
        for lat in (45.0, 60.0, 75.0):
            high = FreewaySegment("SR-1", (LatLon(lat, 10.0), LatLon(lat, 10.01)))
            equator = FreewaySegment("SR-1", (LatLon(0.0, 10.0), LatLon(0.0, 10.01)))
            east = math.degrees(300.0 / (EARTH_RADIUS_M * math.cos(math.radians(lat))))
            point = LatLon(lat, 10.01 + east)
            assert FreewaySegmentIndex([high, equator]).within(point, 400.0)
            _assert_within_exact([high, equator], [point], (400.0, 310.0))

    def test_tall_box_and_antimeridian_layouts_under_a_threshold(self):
        # TestBoxBound's layouts, asked within rather than how far.
        rng = random.Random("east-west-within")
        for routes, per_route in ((4, (1, 6)), (2, (17, 64)), (2, (130, 180))):
            segments = _random_network(rng, routes, per_route)
            segments.append(FreewaySegment("SR-90", (LatLon(25.0, -98.0), LatLon(40.0, -96.0))))
            points = []
            for seg in rng.sample(segments[:-1], 3) + segments[-1:]:
                lat_lo, _, lat_hi, _ = seg.bbox
                for offset in (0.001, 0.005, 0.5, 3.0, 90.0, 170.0):
                    side = rng.choice((-1.0, 1.0))
                    lon = -97.75 + side * offset
                    lon = lon - 360.0 if lon > 180.0 else lon + 360.0 if lon < -180.0 else lon
                    points.append(LatLon(rng.uniform(lat_lo, lat_hi), lon))
            _assert_within_exact(segments, points, (400.0, 5000.0, 1e6))
        tall = FreewaySegment("SR-1", (LatLon(24.32, 169.30), LatLon(59.58, 161.71)))
        north = FreewaySegment("SR-2", (LatLon(27.62, -170.18), LatLon(27.62, -170.17)))
        _assert_within_exact([tall, north], [LatLon(-32.85, -170.18), LatLon(-30.0, -175.0)],
                             (6.72e6, 6.725e6, 6.73e6))
        across = [
            FreewaySegment("SR-3", (LatLon(10.0, 179.80), LatLon(10.01, 179.95))),
            FreewaySegment("SR-4", (LatLon(10.0, -179.79), LatLon(10.01, -179.78))),
        ]
        points = [LatLon(10.0, lon) for lon in (-179.95, -179.9, 179.99, -179.5)]
        _assert_within_exact(across, points, (400.0, 5000.0, 20000.0, 60000.0))

    def test_degenerate_thresholds(self):
        # No distance is within a negative or NaN threshold, and every one
        # is within a half circumference; none of these takes a band.
        rng = random.Random("degenerate")
        segments = _random_network(rng, 3, (2, 8))
        points = [segments[0].polyline[0], segments[1].polyline[-1]]
        points += _query_points(rng, segments, 8)
        thresholds = (0.0, -1.0, math.nan, self.HALF_TURN_M,
                      math.nextafter(self.HALF_TURN_M, 0.0))
        _assert_within_exact(segments, points, thresholds)
        index = FreewaySegmentIndex(segments)
        assert index.within(points[0], 0.0)
        assert not index.within(points[0], -1.0)
        assert not index.within(points[0], math.nan)
        assert index.within(LatLon(-30.0, 80.0), self.HALF_TURN_M)

    def test_far_entries_are_not_bounded(self, monkeypatch):
        # Ten 1 km segments end to end along a meridian (one node), queried
        # 400 m south of the first: one sin for the threshold, two per
        # entry bounded and two per leg measured, so bounding all ten
        # entries alone would take 21 calls.
        step = math.degrees(1000.0 / EARTH_RADIUS_M)
        segments = [
            FreewaySegment("SR-1", (LatLon(30.0 + k * step, -97.0),
                                    LatLon(30.0 + (k + 1) * step, -97.0)))
            for k in range(10)
        ]
        point = LatLon(30.0 - math.degrees(400.0 / EARTH_RADIUS_M), -97.0)
        index = FreewaySegmentIndex(segments)
        expected = index.distance_to_nearest(point, "SR-1") <= 400.0
        calls = []
        sin = math.sin
        monkeypatch.setattr(roadclass.math, "sin", lambda x: calls.append(x) or sin(x))
        decided = index.within(point, 400.0, "SR-1")
        monkeypatch.undo()
        assert decided is expected
        assert 0 < len(calls) < 1 + 2 * len(segments)


class TestClassifyRoad:
    def test_always_freeway_name_any_location(self, sf_index):
        result = classify_road(record_named("I-280 N/B", LatLon(37.60, -122.3)), sf_index)
        assert result.road_class is RoadClass.FREEWAY
        assert result.provenance is Provenance.BY_NAME_ALWAYS

    def test_ambiguous_near_and_far(self, sf_index):
        # ~100 m east of the US-101 polyline.
        near = classify_road(
            record_named("US-101", LatLon(37.74, -122.40386)), sf_index
        )
        assert near.road_class is RoadClass.FREEWAY
        assert near.provenance is Provenance.BY_PROXIMITY
        assert near.distance_m == pytest.approx(100.0, abs=1.0)
        # ~1.2 km away: a surface-street stretch of the same name.
        far = classify_road(record_named("US-101", LatLon(37.74, -122.3914)), sf_index)
        assert far.road_class is RoadClass.SURFACE_STREET
        assert far.distance_m == pytest.approx(1200.0, abs=5.0)

    def test_non_freeway_name(self, sf_index):
        result = classify_road(record_named("MAIN ST", LatLon(37.7, -122.42)), sf_index)
        assert result.road_class is RoadClass.SURFACE_STREET
        assert result.provenance is Provenance.BY_NAME_NON_FREEWAY

    def test_ambiguous_without_location_unresolvable(self, sf_index):
        result = classify_road(record_named("US-101", None), sf_index)
        assert result.road_class is RoadClass.SURFACE_STREET
        assert result.provenance is Provenance.UNRESOLVABLE

    def test_on_polyline_is_freeway(self, sf_index):
        result = classify_road(record_named("US-101", LatLon(37.75, -122.405)), sf_index)
        assert result.road_class is RoadClass.FREEWAY
        assert result.distance_m == pytest.approx(0.0, abs=1e-6)

    def test_threshold_inclusive_boundary(self, sf_index, monkeypatch):
        record = record_named("US-101", LatLon(37.74, -122.40))
        monkeypatch.setattr(
            FreewaySegmentIndex, "distance_to_nearest", lambda self, p, route_id=None: 400.0
        )
        at_threshold = classify_road(record, sf_index)
        assert at_threshold.road_class is RoadClass.FREEWAY
        monkeypatch.setattr(
            FreewaySegmentIndex,
            "distance_to_nearest",
            lambda self, p, route_id=None: 400.0000001,
        )
        past_threshold = classify_road(record, sf_index)
        assert past_threshold.road_class is RoadClass.SURFACE_STREET

    def test_monotone_in_distance(self, sf_index):
        # Walking away from the route can flip Freeway -> SurfaceStreet
        # exactly once, never back.
        lons = [-122.405 - k * 0.0005 for k in range(20)]
        seen_surface = False
        for lon in lons:
            result = classify_road(record_named("US-101", LatLon(37.74, lon)), sf_index)
            if result.road_class is RoadClass.SURFACE_STREET:
                seen_surface = True
            else:
                assert not seen_surface

    def test_any_route_option(self, sf_index):
        # On I-280 geometry but named US-101: the route-filtered check
        # measures to US-101 (far), the any-route option to I-280 (near).
        point = LatLon(37.75, -122.42)
        filtered = classify_road(record_named("US-101", point), sf_index)
        assert filtered.road_class is RoadClass.SURFACE_STREET
        any_route = classify_road(record_named("US-101", point), sf_index, any_route=True)
        assert any_route.road_class is RoadClass.FREEWAY

    def test_custom_threshold(self, sf_index):
        near = record_named("US-101", LatLon(37.74, -122.40386))  # ~100 m
        strict = classify_road(near, sf_index, threshold_m=50.0)
        assert strict.road_class is RoadClass.SURFACE_STREET


class TestRunDecision:
    """The run decides ambiguous located crashes by ``within``
    (``decide_road``); its decision must be ``classify_road``'s, at the
    run's threshold and at each proximity record's exact distance and
    the float below it, routed both ways."""

    @staticmethod
    def _assert_agree(records, index):
        decided_by_distance = 0
        for any_route in (False, True):
            for record in records:
                measured = classify_road(record, index, any_route=any_route)
                thresholds = [DEFAULT_PROXIMITY_THRESHOLD_M]
                if measured.provenance is Provenance.BY_PROXIMITY:
                    distance = measured.distance_m
                    thresholds += [distance, math.nextafter(distance, 0.0)]
                    decided_by_distance += 1
                for threshold_m in thresholds:
                    expected = classify_road(record, index, threshold_m, any_route)
                    decided = decide_road(record, index, threshold_m, any_route)
                    assert decided == expected._replace(distance_m=None), (
                        record, threshold_m, any_route
                    )
        assert decided_by_distance

    def test_fixture_records(self, fixtures_dir):
        config = pipeline.load_run_config(fixtures_dir / "run.ini")
        records, _, _ = pipeline.load_crashes(config)
        self._assert_agree(records, pipeline.build_index(config))

    def test_generated_partly_freeway_network(self):
        rng = random.Random("run-decision")
        segments = _random_network(rng, 6, (2, 8))
        # One route is freeway along its whole extent; the rest change class.
        segments = [
            dataclasses.replace(seg, always_freeway=seg.route_id == "SR-0") for seg in segments
        ]
        names = [*dict.fromkeys(seg.route_id for seg in segments), "MAIN ST"]
        records = [
            record_named(rng.choice(names), point)
            for point in _query_points(rng, segments, 60) + [None] * 3
        ]
        self._assert_agree(records, FreewaySegmentIndex(segments))


class TestSharedDecisions:
    """A decision without a distance is built once per index: one for all
    non-freeway names, and per route one by name, or one unresolvable and
    one by proximity per road class, whatever name of the route a record
    gives.  Only a measured proximity classification is built per crash."""

    def test_equal_decisions_are_one_value(self, sf_index):
        names = ["I-280", "I 280 S/B", "US-101", "US 101 NB", "ELM AVE", "", "MAIN ST"]
        points = [None, LatLon(37.74, -122.405), LatLon(37.74, -122.30)]
        records = [record_named(name, point) for name in names for point in points] * 2
        shared: dict = {}
        for any_route in (False, True):
            for record in records:
                decided = decide_road(record, sf_index, any_route=any_route)
                assert shared.setdefault(decided, decided) is decided
        assert len(shared) == 5  # non-freeway, I-280, and US-101's three
        for record in records:
            measured = classify_road(record, sf_index)
            if measured.provenance is Provenance.BY_PROXIMITY:
                assert measured.distance_m is not None and measured not in shared
            else:
                assert shared[measured] is measured

    def test_every_name_of_a_route_shares_its_match(self, road_index):
        # MOPAC is an alias of LOOP-1 in the fixture's alias table.
        names = ["LOOP-1", "LOOP 1", "MOPAC", "MO-PAC EXPY"]
        matches = {id(road_index.match_road_name(name)) for name in names}
        assert len(matches) == 1


class TestSegmentValidation:
    def test_two_vertices_required(self):
        with pytest.raises(Exception):
            FreewaySegment("I-1", (LatLon(1.0, 1.0),))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(Exception):
            FreewaySegment("I-1", (LatLon(1.0, 1.0), LatLon(1.0, 1.0)))

    def test_box_is_computed_from_the_checked_polyline(self):
        with pytest.raises(TypeError):
            FreewaySegment("I-1", (), bbox=(0.0, 0.0, 1.0, 1.0))
        seg = FreewaySegment("I-1", (LatLon(1.0, 2.0), LatLon(0.5, 3.0)))
        assert seg.bbox == (0.5, 2.0, 1.0, 3.0)
        moved = dataclasses.replace(seg, polyline=(LatLon(4.0, 5.0), LatLon(6.0, 4.5)))
        assert moved.bbox == (4.0, 4.5, 6.0, 5.0)
        with pytest.raises(DataError, match="repeated consecutive vertex"):
            dataclasses.replace(seg, polyline=(LatLon(4.0, 5.0), LatLon(4.0, 5.0)))


def _write_segments(tmp_path, coordinates, properties=None):
    if properties is None:
        properties = {"names": [], "always_freeway": True}
    feature = {
        "type": "Feature",
        "properties": {"route_id": "I-35", **properties},
        "geometry": {"type": "LineString", "coordinates": coordinates},
    }
    path = tmp_path / "segments.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [feature]}))
    return path


class TestSegmentsGeojson:
    @pytest.mark.parametrize(
        "position",
        [
            ["-97.7", 30.4],  # not a number
            [-97.7, float("nan")],
            [float("inf"), 30.4],
            [True, 30.4],
            [-97.7],
            [-97.7, 30.4, 150.0],
            [30.4, -97.7],  # lat, lon swapped: latitude out of range
            [-197.7, 30.4],
            "-97.7,30.4",
        ],
    )
    def test_bad_position_is_config_error(self, tmp_path, position):
        path = _write_segments(tmp_path, [[-97.7, 30.1], position])
        with pytest.raises(ConfigError, match=r"segments.geojson: feature 0 \(I-35\): position 1"):
            load_segments_geojson(path)

    @pytest.mark.parametrize(
        "coordinates,message",
        [
            ([[-97.7, 30.1], [-97.7, 30.1]], r"position 1 \[-97.7, 30.1\] repeats the position"),
            ([[-97.7, 30.1], [-97.6, 30.2], [-97.6, 30.2]], "position 2 .* repeats"),
            ([[-97, 30], [-97.0, 30.0]], "position 1 .* repeats"),
            ([[-97.7, 30.1]], r"1 position\(s\); a LineString needs at least 2"),
            ([], r"0 position\(s\)"),
        ],
        ids=["repeat", "repeat-last", "repeat-int-float", "one-position", "no-position"],
    )
    def test_short_or_repeating_feature_is_config_error(self, tmp_path, coordinates, message):
        path = _write_segments(tmp_path, coordinates)
        with pytest.raises(ConfigError, match=rf"segments.geojson: feature 0 \(I-35\): {message}"):
            load_segments_geojson(path)

    @pytest.mark.parametrize(
        "properties,message",
        [
            # A string is truthy, so it used to load as always-freeway.
            ({"always_freeway": "false"}, "always_freeway 'false' is not true or false"),
            ({"always_freeway": None}, "always_freeway None is not true or false"),
            ({"always_freeway": 0}, "always_freeway 0 is not true or false"),
            # A string used to register each of its letters as an alias.
            ({"names": "MOPAC"}, "names 'MOPAC' are not a list of strings"),
            # A number used to raise an AttributeError on first use.
            ({"names": [5]}, r"names \[5\] are not a list of strings"),
            ({"names": ["MOPAC", None]}, r"names \['MOPAC', None\] are not a list"),
            ({"names": {"MOPAC": 1}}, r"names \{'MOPAC': 1\} are not a list"),
        ],
        ids=["flag-string", "flag-null", "flag-number", "names-string", "names-number",
             "names-null-entry", "names-object"],
    )
    def test_bad_property_is_config_error(self, tmp_path, properties, message):
        path = _write_segments(tmp_path, [[-97.7, 30.1], [-97.7, 30.2]], properties)
        with pytest.raises(ConfigError, match=rf"segments.geojson: feature 0 \(I-35\): {message}"):
            load_segments_geojson(path)

    @pytest.mark.parametrize(
        "route_id",
        [True, 35, 0, False, ["I-35"], {"id": "I-35"}, "", "  "],
        ids=["true", "number", "zero", "false", "list", "object", "empty", "blank"],
    )
    def test_route_id_must_be_a_non_blank_string(self, tmp_path, route_id):
        # Any truthy value used to load as its str(): a route no crash names.
        path = _write_segments(tmp_path, [[-97.7, 30.1], [-97.7, 30.2]], {"route_id": route_id})
        message = rf"segments.geojson: feature 0: route_id {re.escape(repr(route_id))} is not"
        with pytest.raises(ConfigError, match=message):
            load_segments_geojson(path)

    @pytest.mark.parametrize("properties", [{"route_id": None}, {}], ids=["null", "absent"])
    def test_missing_route_id_names_the_feature(self, tmp_path, properties):
        path = _write_segments(tmp_path, [[-97.7, 30.1], [-97.7, 30.2]], properties)
        if not properties:
            doc = json.loads(path.read_text())
            del doc["features"][0]["properties"]["route_id"]
            path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"feature missing route_id \(feature 0\)"):
            load_segments_geojson(path)

    @pytest.mark.parametrize(
        "properties,names,always",
        [
            ({}, (), False),
            ({"names": None, "always_freeway": True}, (), True),
            ({"names": ["MOPAC", "LOOP 1"], "always_freeway": False}, ("MOPAC", "LOOP 1"), False),
        ],
        ids=["absent", "names-null", "names-and-flag"],
    )
    def test_optional_properties_load(self, tmp_path, properties, names, always):
        path = _write_segments(tmp_path, [[-97.7, 30.1], [-97.7, 30.2]], properties)
        (segment,) = load_segments_geojson(path)
        assert (segment.display_names, segment.always_freeway) == (names, always)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([], "not a FeatureCollection"),
            ({"features": {}}, "not a FeatureCollection"),
            ({"features": [[]]}, "only LineString features"),
            ({"features": [{"geometry": [], "properties": {}}]}, "only LineString features"),
            ({"features": [{"geometry": {"type": "LineString"}, "properties": []}]},
             "feature missing route_id"),
            ({"features": [{"geometry": {"type": "LineString", "coordinates": None},
                            "properties": {"route_id": "I-35"}}]},
             r"feature 0 \(I-35\): coordinates None are not a list of positions"),
        ],
        ids=["list", "features-object", "feature-list", "geometry-list", "properties-list",
             "coordinates-null"],
    )
    def test_malformed_structure_is_config_error(self, tmp_path, doc, message):
        path = tmp_path / "segments.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            load_segments_geojson(path)

