"""From aligned noun and verb scores to composed action candidates.

Each stream's scores are sparse ``(row, class, score)`` entries, one row
per aligned proposal pair, as the proposal file holds them; a class
without an entry scores 0. The top noun and verb classes of each pair
cross into scored action hypotheses; each scores as the geometric mean
of its factor probabilities. Pairs compose together, and each pair's
candidates come noun by noun in top-K order, unranked: Soft-NMS ranks
detections later.
"""

import numpy as np

from tadfusion.composition import ENTRY, VocabSpec, compose_actions

vocab = VocabSpec(noun_count=6, verb_count=4)
noun_entries = np.array([
    (0, 0, 0.05), (0, 1, 0.9), (0, 2, 0.2), (0, 3, 0.1), (0, 4, 0.02), (0, 5, 0.3),
    (1, 0, 0.6), (1, 3, 0.6), (1, 4, 0.1),  # tied nouns: the lower index is taken first
], dtype=ENTRY)
verb_entries = np.array([
    (0, 0, 0.7), (0, 1, 0.1), (0, 2, 0.4), (0, 3, 0.05),
    (1, 1, 0.8), (1, 3, 0.3),
], dtype=ENTRY)
pairs = 2
composed = compose_actions(noun_entries, verb_entries, k_n=2, k_v=2, vocab=vocab)
print(f"top-2 x top-2 composition of {pairs} pairs ({len(composed)} candidates):")
for pair in range(pairs):
    print(f"pair {pair}:")
    for c in composed[composed.row == pair]:
        print(f"  noun={c.noun} verb={c.verb} action={c.action:>2} "
              f"score=sqrt(p_n*p_v)={c.score:.4f}")
