"""Whatever ``pipeline`` writes, ``read_submission`` reads back unchanged."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from tadfusion.cli import main
from tadfusion.io import read_submission, serialize_submission

# finite, but large enough that seconds conversion overflows a float
HUGE = [1e308, 1.7e308, 1.7976931348623157e308]

coords = st.one_of(
    st.floats(-50.0, 5000.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(HUGE + [-x for x in HUGE]),
)
boundaries = st.tuples(coords, coords).filter(lambda b: b[0] != b[1]).map(sorted)


def sparse_scores(size):
    pairs = st.lists(st.tuples(st.integers(0, size - 1), st.floats(0.0, 1.0)), max_size=3)
    return pairs.map(lambda ps: ",".join(f"{i}:{s!r}" for i, s in ps) or "-")


proposal_lines = st.tuples(
    st.sampled_from(["P01", "P02_101", "vidé", 'q"x', "a\\b"]),
    st.one_of(st.integers(0, 10_000), st.just(10**400)),
    boundaries, sparse_scores(300), boundaries, sparse_scores(97),
).map(lambda f: f"{f[0]} {f[1]} {f[2][0]!r} {f[2][1]!r} {f[3]} {f[4][0]!r} {f[4][1]!r} {f[5]}")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(proposal_lines, min_size=1, max_size=4))
def test_accepted_proposals_round_trip_byte_identically(lines):
    with tempfile.TemporaryDirectory() as tmp:
        proposals, output = Path(tmp) / "p.txt", Path(tmp) / "sub.json"
        proposals.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["pipeline", "--proposals", str(proposals), "--output", str(output)])
        assert code in (0, 1)
        if code == 0:
            written = output.read_bytes()
            assert serialize_submission(read_submission(output)).encode("utf-8") == written
