"""Class-wise Soft-NMS: score decay, minimum-score drop, boundary voting.

Overlapping windows emit near-duplicates. Instead of deleting every
overlap, Soft-NMS decays scores by a Gaussian of the overlap and drops
only what falls below the minimum score; kept intervals are refined by
a score-weighted vote over their strong neighbors.
"""

import math

import numpy as np

from tadfusion.suppression import (
    DETECTION,
    VERB_ACTION_NMS,
    NmsConfig,
    rank_order,
    soft_nms,
    suppress_video,
    temporal_iou,
)

# Detections travel as one record array: video code, start, end, verb,
# noun, action id and score per row. All of these are of video 0.
dets = np.rec.fromrecords([
    (0, 10.0, 20.0, 0, 0, 0, 0.90),   # the strongest hypothesis
    (0, 11.0, 21.0, 0, 0, 0, 0.60),   # near-duplicate from the next window
    (0, 14.0, 22.0, 0, 0, 0, 0.40),   # partial overlap
    (0, 40.0, 50.0, 0, 0, 0, 0.80),   # unrelated instance of the same class
], dtype=DETECTION)
best = (dets.start[0], dets.end[0])

print("input detections (one class):")
for start, end, score, iou in zip(dets.start, dets.end, dets.score,
                                  temporal_iou(best, (dets.start, dets.end))):
    print(f"  ({start:5.1f}, {end:5.1f}) score={score:.2f}  tIoU vs best={iou:.3f}")


def pool_rows(dets):
    """One class pool as ``soft_nms`` rows ``[-score, start, tie, end, score,
    component]``: rank order, its position as the tie, one component."""
    ranked = dets[rank_order(dets.score, dets.start, dets.action)]
    return [[-score, start, tie, end, score, 0] for tie, (start, end, score) in
            enumerate(zip(ranked.start.tolist(), ranked.end.tolist(), ranked.score.tolist()))]


# soft_nms returns each kept row as (-score, start, tie, end), in the order kept
kept = soft_nms(pool_rows(dets), VERB_ACTION_NMS)
print(f"\nafter Soft-NMS (sigma={VERB_ACTION_NMS.sigma}):")
for neg_score, start, _, end in kept:
    print(f"  ({start:5.1f}, {end:5.1f}) score={-neg_score:.4f}")
decay = math.exp(-temporal_iou(best, (dets.start[1], dets.end[1])) ** 2 / 0.4)
print(f"  (duplicate decayed by exp(-tIoU^2/sigma) = {decay:.4f})")

# suppress_video runs Soft-NMS with voting over each video's pools
voted = suppress_video(dets, VERB_ACTION_NMS)
print("\nwith boundary voting (neighbors above tIoU 0.75 vote, original scores):")
for start, end, score in zip(voted.start, voted.end, voted.score):
    print(f"  ({start:5.2f}, {end:5.2f}) score={score:.4f}")

# Suppression is class-wise: identical intervals under different action
# ids never touch each other.
mixed = np.rec.fromrecords([(0, 10.0, 20.0, 1, 0, 1, 0.9), (0, 10.0, 20.0, 2, 0, 2, 0.9)],
                           dtype=DETECTION)
survivors = suppress_video(mixed, VERB_ACTION_NMS)
print(f"\nsame interval, two action ids -> {len(survivors)} survivors (class isolation)")
print(f"  their scores: {survivors.score.tolist()}")

# As sigma -> 0 the decay becomes a hard cut-off.
hard = soft_nms(pool_rows(dets), NmsConfig(sigma=1e-6, min_score=0.001, vote_threshold=0.75))
print(f"sigma -> 0 reproduces hard NMS: {[(start, end) for _, start, _, end in hard]}")
