"""Feature-grid time conversion and sliding-window placement.

Detector features are computed every 8 frames of 30 fps video with a
4-frame offset, so feature index i sits at (8*i + 4) / 30 seconds. Long
videos are processed in windows of 4608 feature steps with 50% overlap;
the last window slides left so that it still has full length.
"""

import numpy as np

from tadfusion.timeline import FeatureGrid, generate_windows, intervals_to_seconds

grid = FeatureGrid()
print("default grid:", grid)

# Feature index i sits at coordinate i: the start of boundary (i, i + 1).
indices = np.array([0, 1, 30, 1000], dtype=float)
centers, _, _ = intervals_to_seconds(indices, indices + 1, [0] * len(indices), grid)
print("\nfeature-index centers:")
for i, seconds in zip(indices.astype(int), centers):
    print(f"  index {i:>5} -> {seconds:9.4f} s")

# A regressed boundary in window-local feature coordinates converts to
# seconds from the window's first feature, so overlapping windows agree
# on one global clock.
local_boundary = (0.0, 10.0)
for window_start_feature in (0, 2304):
    start, end, _ = intervals_to_seconds(
        np.array(local_boundary[:1]), np.array(local_boundary[1:]), [window_start_feature], grid
    )
    print(
        f"\nboundary {local_boundary} in window starting at feature "
        f"{window_start_feature}: {start[0]:.4f} .. {end[0]:.4f} s"
    )

print("\nwindow placements:")
for total in (100, 4608, 6000, 20000):
    windows = generate_windows(total)
    placed = ", ".join(
        f"[{w.start_feature}, {w.start_feature + w.length_features})" for w in windows
    )
    print(f"  {total:>6} features -> {placed}")
