"""
Two-step freeway classification
===============================

Builds a small freeway index (one always-freeway interstate, one route
that changes functional class along its length, one locally-aliased
loop), then classifies crash road names: by name where that settles it,
by 400 m proximity where it does not.
"""

import math

from crashbench import CrashRecord, FreewaySegment, FreewaySegmentIndex, LatLon
from crashbench.model import KabcoLevel
from crashbench.roadclass import classify_road

# Synthetic geometry: I-35 runs north-south and is a freeway everywhere;
# US-290 runs east-west and is a freeway only along this stretch; Loop 1
# is coded locally as MOPAC.
segments = [
    FreewaySegment("I-35", (LatLon(30.10, -97.735), LatLon(30.45, -97.735)),
                   always_freeway=True),
    FreewaySegment("US-290", (LatLon(30.32, -97.95), LatLon(30.32, -97.60))),
    FreewaySegment("LOOP-1", (LatLon(30.15, -97.770), LatLon(30.40, -97.770)),
                   display_names=("MOPAC", "MOPAC EXPY")),
]
index = FreewaySegmentIndex(segments)

def crash_at(name, lat=None, lon=None):
    location = LatLon(lat, lon) if lat is not None else None
    return CrashRecord(crash_id="demo", state="TX", county="TRAVIS", year=2023,
                       worst_injury=KabcoLevel.O, location=location,
                       primary_road_name=name)

# Step one: name recognition. Punctuation, case, and directional
# suffixes are stripped; interstates match immediately with no geometry.
for name in ("I-35 N/B", "i-0035 sb", "MOPAC", "ELM AVE"):
    match = index.match_road_name(name)
    print(f"{name!r:<14} -> {match.kind.value:<14} route={match.route_id}")

# Step two: routes that are freeway only in places need the crash
# coordinates. Walk due north from US-290 and watch the classification
# flip at the 400 m threshold (inclusive). classify_road reports the
# exact nearest distance; the run only asks index.within, which stops at
# the first leg inside the threshold, and both flip at the same place.
print("\ndistance sweep away from US-290:")
meters_per_deg = 6371000.0 * math.pi / 180.0
for offset_m in (0.0, 200.0, 399.0, 400.0, 401.0, 1200.0):
    record = crash_at("US-290", 30.32 + offset_m / meters_per_deg, -97.70)
    result = classify_road(record, index)
    within = index.within(record.location, 400.0, route_id="US-290")
    print(f"  {offset_m:>6.0f} m -> {result.road_class.value:<14}"
          f" (computed {result.distance_m:.1f} m, within 400 m: {within})")

# An ambiguous name with no coordinates cannot be placed on the freeway;
# it falls to the surface-street side and is tagged so the bucket can be
# counted and, if needed, geocoded later.
unplaced = classify_road(crash_at("US-290"), index)
print(f"\nambiguous + no location -> {unplaced.road_class.value}"
      f" ({unplaced.provenance.value})")

# The alias table covers local names: MOPAC near its polyline is a
# freeway crash, far away it is a surface street crash.
near = classify_road(crash_at("MOPAC", 30.30, -97.7690), index)
far = classify_road(crash_at("MOPAC", 30.30, -97.8000), index)
print(f"MOPAC at {near.distance_m:.0f} m -> {near.road_class.value}; "
      f"at {far.distance_m:.0f} m -> {far.road_class.value}")
