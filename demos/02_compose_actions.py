"""From aligned noun and verb scores to composed action candidates.

The noun and verb streams of each aligned proposal pair cross their top
classes into scored action hypotheses; each scores as the geometric mean
of its factor probabilities. Pairs compose together, one row per pair.
"""

import numpy as np

from tadfusion import VocabSpec, compose_actions

vocab = VocabSpec(noun_count=6, verb_count=4)
noun_scores = np.array([
    [0.05, 0.9, 0.2, 0.1, 0.02, 0.3],
    [0.6, 0.0, 0.0, 0.6, 0.1, 0.0],  # tied nouns: equal products rank by action id
])
verb_scores = np.array([
    [0.7, 0.1, 0.4, 0.05],
    [0.0, 0.8, 0.0, 0.3],
])
composed = compose_actions(noun_scores, verb_scores, k_n=2, k_v=2, vocab=vocab)
print(f"top-2 x top-2 composition of {len(noun_scores)} pairs ({len(composed)} candidates):")
for pair, candidates in enumerate(composed.reshape(len(noun_scores), -1)):
    print(f"pair {pair}:")
    for c in candidates:
        print(f"  noun={c.noun} verb={c.verb} action={c.action:>2} "
              f"score=sqrt(p_n*p_v)={c.score:.4f}")
