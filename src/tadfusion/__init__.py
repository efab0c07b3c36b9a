"""Two-stream temporal action detection post-processing.

Library for the post-backbone half of a decoupled noun-verb action
detector: top-K noun-verb composition, confidence-weighted boundary
fusion with a hard-mean baseline, class-wise Soft-NMS with boundary
voting, and tIoU/mAP evaluation. A seeded Monte-Carlo simulator
measures the fusion rules' boundary-error gap without a trained
detector. Names are imported from their submodules, e.g.
``from tadfusion.pipeline import run_pipeline``.
"""

__version__ = "0.1.0"
