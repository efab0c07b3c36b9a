"""Class-wise Soft-NMS: score decay, minimum-score drop, boundary voting.

Overlapping windows emit near-duplicates. Instead of deleting every
overlap, Soft-NMS decays scores by a Gaussian of the overlap and drops
only what falls below the minimum score; kept intervals are refined by
a score-weighted vote over their strong neighbors.
"""

import math

from tadfusion import (
    ActionDetection,
    NmsConfig,
    detection_columns,
    soft_nms,
    suppress_video,
    temporal_iou,
)
from tadfusion.suppression import VERB_ACTION_NMS


def det(start, end, score, action_id=0):
    return ActionDetection(
        video_id="demo", start=start, end=end,
        verb_index=action_id, noun_index=0, action_id=action_id, score=score,
    )


dets = [
    det(10.0, 20.0, 0.90),   # the strongest hypothesis
    det(11.0, 21.0, 0.60),   # near-duplicate from the next window
    det(14.0, 22.0, 0.40),   # partial overlap
    det(40.0, 50.0, 0.80),   # unrelated instance of the same class
]

print("input detections (one class):")
for d in dets:
    iou = temporal_iou(dets[0].interval, d.interval)
    print(f"  ({d.start:5.1f}, {d.end:5.1f}) score={d.score:.2f}  tIoU vs best={iou:.3f}")

kept = soft_nms(dets, VERB_ACTION_NMS)
print(f"\nafter Soft-NMS (sigma={VERB_ACTION_NMS.sigma}):")
for d in kept:
    print(f"  ({d.start:5.1f}, {d.end:5.1f}) score={d.score:.4f}")
decay = math.exp(-temporal_iou(dets[0].interval, dets[1].interval) ** 2 / 0.4)
print(f"  (duplicate decayed by exp(-tIoU^2/sigma) = {decay:.4f})")

kept_voted = soft_nms(dets, VERB_ACTION_NMS, vote=True)
print("\nwith boundary voting (neighbors above tIoU 0.75 vote, original scores):")
for d in kept_voted:
    print(f"  ({d.start:5.2f}, {d.end:5.2f}) score={d.score:.4f}")

# Suppression is class-wise: identical intervals under different action
# ids never touch each other. A video's detections travel as columns.
mixed = detection_columns([det(10, 20, 0.9, action_id=1), det(10, 20, 0.9, action_id=2)])
survivors = suppress_video(mixed, VERB_ACTION_NMS, class_key="action")
print(f"\nsame interval, two action ids -> {len(survivors)} survivors (class isolation)")
print(f"  their scores: {survivors.score.tolist()}")

# As sigma -> 0 the decay becomes a hard cut-off.
hard = soft_nms(dets, NmsConfig(sigma=1e-6, min_score=0.001, vote_threshold=0.75))
print(f"sigma -> 0 reproduces hard NMS: {[(d.start, d.end) for d in hard]}")
