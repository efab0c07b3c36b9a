"""From anchor-free head outputs to composed action candidates.

Each pyramid level predicts, per temporal point, class probabilities and
distances to the segment start/end. Decoding turns those into intervals;
the noun and verb streams then cross their top classes into scored
action hypotheses.
"""

import numpy as np

from tadfusion import (
    HeadOutput,
    VocabSpec,
    compose_actions,
    decode_anchor_free,
    pool_windows,
    pre_nms_select,
)
from tadfusion.timeline import Window

rng = np.random.default_rng(0)

# A tiny level-3 head (stride 4) over 12 temporal points and 5 classes.
scores = rng.uniform(0.0, 1.0, size=(12, 5))
distances = rng.uniform(0.0, 3.0, size=(12, 2))
distances[::4] = 0.0  # some points carry no interval
head = HeadOutput(
    level=3,
    level_stride=4,
    point_scores=scores,
    point_distances=distances,
    validity_mask=np.ones(12, dtype=bool),
)

proposals = decode_anchor_free(head)
print(f"decoded {len(proposals)} proposals from 12 points (zero-length skipped)")
for p in proposals[:3]:
    print(f"  boundary=({p.boundary[0]:7.2f}, {p.boundary[1]:7.2f})  max={p.max_score:.3f}")

kept = pre_nms_select(proposals, min_score=0.5, top_k=5)
print(f"\npre-NMS selection kept {len(kept)} (max score >= 0.5, top 5)")

# Overlapping windows pool into one global coordinate frame.
w1, w2 = Window(0, 48), Window(24, 48)
pooled = pool_windows([(w1, proposals[:2]), (w2, proposals[:2])])
print("\npooled boundaries (second window shifted by 24 features):")
for p in pooled:
    print(f"  ({p.boundary[0]:7.2f}, {p.boundary[1]:7.2f}) from window {p.source_window.start_feature}")

# Composition: cross the top noun and verb classes of one aligned pair.
vocab = VocabSpec(noun_count=6, verb_count=4)
noun_scores = np.array([0.05, 0.9, 0.2, 0.1, 0.02, 0.3])
verb_scores = np.array([0.7, 0.1, 0.4, 0.05])
candidates = compose_actions(noun_scores, verb_scores, k_n=2, k_v=2, vocab=vocab)
print(f"\ntop-2 x top-2 composition ({len(candidates)} candidates):")
for c in candidates:
    print(
        f"  noun={c.noun_index} verb={c.verb_index} action={c.action_id:>2} "
        f"score=sqrt(p_n*p_v)={c.score:.4f}"
    )
