"""Monte-Carlo study: when does weighted fusion beat the hard mean?

Both streams see the same ground-truth segments, but their boundary
noise scales with (1 - confidence): the regime where classification
confidence genuinely signals localization reliability. Weighted fusion
should cut the expected absolute boundary error; in the symmetric
regime (equal confidences) it has nothing to exploit and ties the mean.
"""

import numpy as np

from tadfusion.simulation import ScenarioConfig, compare_fusion, generate_scenario


def study(name, **overrides):
    cfg = ScenarioConfig(num_segments=10_000, video_length_s=2000.0, seed=7, **overrides)
    report = compare_fusion(generate_scenario(cfg))
    gap = report.mean_abs_err_mean - report.mean_abs_err_dwf
    print(f"{name}:")
    print(f"  mean abs error, weighted fusion : {report.mean_abs_err_dwf:.4f} s")
    print(f"  mean abs error, hard mean       : {report.mean_abs_err_mean:.4f} s")
    print(f"  error gap (mean - dwf)          : {gap:+.4f} s")
    print(f"  confidence-error correlation    : {report.confidence_error_correlation:+.3f}")
    print(f"  one-sided paired p-value        : {report.p_value:.2e}\n")
    return report


# Asymmetric regime: confidences range widely, noise tracks (1 - C).
asymmetric = study("asymmetric regime (c in [0.10, 0.95])")

# Symmetric regime: both streams share one confidence level, so the
# weights collapse to ~0.5 and the two strategies coincide.
study(
    "symmetric regime (c fixed at 0.6)",
    confidence_lo=0.6,
    confidence_hi=0.6,
    sigma_max=0.3,
)

# Error distribution of the asymmetric run, split by who won per segment.
diffs = asymmetric.per_segment_mean - asymmetric.per_segment_dwf
print("asymmetric per-segment gap quantiles (positive favors weighted fusion):")
for q in (5, 25, 50, 75, 95):
    print(f"  p{q:02d}: {np.percentile(diffs, q):+8.4f} s")
print(f"  weighted fusion better on {np.mean(diffs > 0) * 100:.1f}% of segments")
