"""Confidence-weighted boundary fusion versus the hard mean.

The two streams disagree about the interval. The hard mean splits the
difference no matter what; weighted fusion moves boundary authority
toward whichever stream is more confident, leaving the action score
untouched.
"""

import numpy as np

from tadfusion.composition import ENTRY
from tadfusion.fusion import MEAN_WEIGHTS, dwf_weights, fuse, stream_confidences

noun_boundary = (10.0, 20.0)
verb_boundary = (14.0, 24.0)
print(f"noun proposes {noun_boundary}, verb proposes {verb_boundary}")
print(f"hard mean: {fuse(noun_boundary, verb_boundary, MEAN_WEIGHTS)}\n")

print("confidence sweep (verb confidence fixed at 0.5):")
print("  c_noun  w_noun  w_verb     fused interval")
for c_noun in np.linspace(0.1, 0.9, 5):
    w_noun, w_verb = weights = dwf_weights(float(c_noun), 0.5)
    fused = fuse(noun_boundary, verb_boundary, weights)
    print(
        f"  {c_noun:6.2f}  {w_noun:6.3f}  {w_verb:6.3f}"
        f"     ({fused[0]:6.3f}, {fused[1]:6.3f})"
    )

# Confidences come from each stream's largest class score, so a full
# proposal pair drives fusion without any extra inputs.
noun_entries = np.array([(0, 42, 0.92)], dtype=ENTRY)  # clearly visible object
verb_entries = np.array([(0, 7, 0.31)], dtype=ENTRY)  # ambiguous motion
(c_noun,), (c_verb,) = stream_confidences(noun_entries, verb_entries, 1)
fused = fuse(noun_boundary, verb_boundary, dwf_weights(c_noun, c_verb))
print(
    f"\nconfident noun ({c_noun:.2f}) vs uncertain verb ({c_verb:.2f}):"
    f"\n  fused interval ({fused[0]:.3f}, {fused[1]:.3f}) sits near the noun's"
)
