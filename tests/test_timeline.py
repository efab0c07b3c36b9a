import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tadfusion import timeline
from tadfusion.errors import InvalidConfig
from tadfusion.timeline import (
    FeatureGrid,
    Window,
    generate_windows,
    intervals_to_seconds,
    seconds_to_feature_coord,
)


def to_seconds(boundary, grid=FeatureGrid(), window_start=0):
    """``(start_s, end_s)`` of one boundary in the window starting at feature
    ``window_start``, or None where it is dropped."""
    start, end, kept = intervals_to_seconds(
        np.array([boundary[0]], dtype=float), np.array([boundary[1]], dtype=float),
        [window_start], grid)
    return (float(start[0]), float(end[0])) if kept[0] else None


def center_seconds(i, grid=FeatureGrid()):
    """The center of feature step ``i``: the start of boundary ``(i, i + 1)``."""
    return to_seconds((i, i + 1), grid)[0]


class TestFeatureIndexToSeconds:
    def test_index_zero_default_grid(self):
        assert center_seconds(0) == pytest.approx(4 / 30)

    def test_index_thirty_default_grid(self):
        assert center_seconds(30) == pytest.approx(244 / 30)

    def test_custom_grid(self):
        grid = FeatureGrid(stride_frames=16, offset_frames=8, fps=30)
        assert center_seconds(1, grid) == pytest.approx(0.8)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_monotone(self, i):
        assert center_seconds(i + 1) > center_seconds(i)


class TestBoundaryToSeconds:
    def test_window_at_origin(self):
        start, end = to_seconds((0.0, 10.0))
        assert start == pytest.approx(4 / 30)
        assert end == pytest.approx(84 / 30)

    def test_window_offset_shifts_both_ends(self):
        # feature 288 is frame 288 * 8 = 2304
        start, end = to_seconds((0.0, 10.0), window_start=288)
        assert start == pytest.approx(2308 / 30)
        assert end == pytest.approx(2388 / 30)

    def test_degenerate_boundary_rejected(self):
        assert to_seconds((5.0, 5.0)) is None
        assert to_seconds((7.0, 3.0)) is None

    def test_negative_coordinates_clamp_to_zero(self):
        start, end = to_seconds((-3.0, 10.0))
        expected_start, _ = to_seconds((0.0, 10.0))
        assert start == expected_start

    def test_fully_negative_boundary_rejected(self):
        assert to_seconds((-5.0, -1.0)) is None

    def test_center_and_boundary_share_offset(self):
        # start coordinate of a boundary is the center of the same index
        for i in [0, 5, 113]:
            start, _ = to_seconds((float(i), float(i + 1)))
            assert start == pytest.approx((8 * i + 4) / 30)

    @given(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        st.floats(min_value=1e-6, max_value=1e5, allow_nan=False),
    )
    def test_strictly_monotone(self, u, delta):
        a = to_seconds((u, u + delta))
        assert a[0] < a[1]

    def test_round_trip_with_inverse(self):
        grid = FeatureGrid()
        for u in [0.0, 3.5, 999.25]:
            sec = (u * 8 + 800 + 4) / 30  # window starting at feature 100, frame 800
            assert seconds_to_feature_coord(sec, grid, 100) == pytest.approx(u)

    def test_rows_convert_independently(self):
        # one call converts many rows, each in its own window
        start, end, kept = intervals_to_seconds(
            np.array([0.0, 5.0, -5.0, 2.0]), np.array([10.0, 5.0, -1.0, 3.0]),
            [0, 0, 0, 288], FeatureGrid())
        assert kept.tolist() == [True, False, False, True]
        assert start[[0, 3]].tolist() == [to_seconds((0.0, 10.0))[0],
                                          to_seconds((2.0, 3.0), window_start=288)[0]]

    def test_window_past_the_float_range_gives_inf_seconds(self):
        start, end, kept = intervals_to_seconds(
            np.array([1.0]), np.array([2.0]), [10**400], FeatureGrid())
        assert kept[0] and math.isinf(start[0]) and math.isinf(end[0])


def end_feature(window):
    return window.start_feature + window.length_features


class TestGenerateWindows:
    def test_exact_fit_single_window(self):
        assert generate_windows(4608) == [Window(0, 4608)]

    def test_short_sequence_single_window(self):
        assert generate_windows(100) == [Window(0, 100)]

    def test_long_sequence_final_window_shifted(self):
        # oracle: brute-force the stride-and-shift rule and verify coverage
        windows = generate_windows(6000)
        assert [w.start_feature for w in windows] == [0, 1392]
        assert all(w.length_features == 4608 for w in windows)
        assert end_feature(windows[-1]) == 6000
        covered = set()
        for w in windows:
            covered.update(range(w.start_feature, end_feature(w)))
        assert covered == set(range(6000))
        # at least 50% overlap between the two windows
        overlap = end_feature(windows[0]) - windows[1].start_feature
        assert overlap / 4608 >= 0.5

    def test_invalid_overlap_rejected(self):
        with pytest.raises(InvalidConfig, match=r"overlap must be in \[0, 1\), got 1.0"):
            generate_windows(100, overlap=1.0)
        with pytest.raises(InvalidConfig, match=r"overlap must be in \[0, 1\), got -0.1"):
            generate_windows(100, overlap=-0.1)

    @given(
        total=st.integers(min_value=1, max_value=30000),
        max_len=st.integers(min_value=1, max_value=6000),
        overlap=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_coverage_and_bounds(self, total, max_len, overlap):
        windows = generate_windows(total, max_len, overlap)
        starts = [w.start_feature for w in windows]
        assert starts == sorted(starts)
        assert all(w.length_features <= max_len for w in windows)
        assert windows[0].start_feature == 0
        assert end_feature(windows[-1]) == total
        # union covers [0, total) without needing gap checks: consecutive
        # windows must connect or overlap
        for prev, nxt in zip(windows, windows[1:]):
            assert nxt.start_feature <= end_feature(prev)


class TestWindowCount:
    """The count checked against ``MAX_WINDOWS`` before any window is built
    is the number of windows built."""

    @pytest.mark.parametrize("total", [1, 7, 100, 4608, 4609, 6000, 9217])
    @pytest.mark.parametrize("max_len", [1, 3, 4608])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.9, 0.999])
    def test_count_is_the_bound(self, monkeypatch, total, max_len, overlap):
        count = len(generate_windows(total, max_len, overlap))
        monkeypatch.setattr(timeline, "MAX_WINDOWS", count)
        assert len(generate_windows(total, max_len, overlap)) == count
        if count > 1:  # a single window is never refused
            monkeypatch.setattr(timeline, "MAX_WINDOWS", count - 1)
            with pytest.raises(InvalidConfig, match="total_features"):
                generate_windows(total, max_len, overlap)
