"""
Matrix profile and arc-curve segmentation
=========================================

The matrix profile stores, for every length-m subsequence, the distance to
its nearest neighbor elsewhere in the series. Where a series repeats its
own patterns, the profile is low; where behavior is unique, it spikes.
FLUSS turns the neighbor INDEX vector into a segmentation signal: nearest
neighbors rarely cross a regime boundary, so the count of crossing arcs
(normalized into the corrected arc curve, CAC) dips at semantic changes.
A threshold on that dip is the alert rule used by the streaming protocol.
"""

import numpy as np

from maintseg.detectors import DetectorConfig, detect, fluss_cac, matrix_profile

rng = np.random.default_rng(21)
n, change = 240, 120
t = np.arange(n, dtype=float)

# regime one: smooth period-12 oscillation; regime two: stiff square wave
smooth = np.sin(2 * np.pi * t / 12.0)
square = np.sign(np.sin(2 * np.pi * t / 24.0)) * 1.4
series = np.where(t < change, smooth, square) + 0.05 * rng.normal(size=n)

m = 12
profile, index = matrix_profile(series, m)
print(f"series n={n}, subsequence length m={m}, true regime change at {change}")
print(f"profile: min {profile.min():.3f} (repeated motifs), "
      f"max {profile.max():.3f}")

# arcs stay within their regime: almost no nearest neighbor crosses the change
crossing = sum(1 for i, j in enumerate(index) if min(i, j) < change - m < max(i, j))
print(f"arcs crossing the boundary: {crossing} of {len(index)}")

cac = fluss_cac(index, m, len(index))
dip = int(np.argmin(cac))
print(f"corrected arc curve: min {cac.min():.3f} at position {dip} "
      f"(true change {change})")


# The threshold rule is `detect` with a FLUSS config, as the streaming
# protocol calls it on every window.
def rule(channel_rule="any"):
    return DetectorConfig("FLUSS", threshold=0.45, m=m, channel_rule=channel_rule)


pos = detect(series[:, None], rule())
print(f"threshold rule at 0.45 -> alert at {pos}")

# A flat window has no regime structure at all: the curve stays at 1.
flat = np.full((240, 1), 2.0)
print(f"flat window -> alert: {detect(flat, rule())}")

# Multivariate handling: "any" alerts if one channel dips, "sum" demands
# the averaged curve to dip, which a flat second channel prevents here.
window = np.column_stack([series, np.full(n, 1.0)])
print(f"two channels, rule=any -> {detect(window, rule('any'))}")
print(f"two channels, rule=sum -> {detect(window, rule('sum'))}")
