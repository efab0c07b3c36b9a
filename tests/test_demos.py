"""Every demo script runs to completion; the fusion demo prints pinned output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


# the fusion demo's output, byte for byte: the hard mean and the DWF sweep
FUSION_DEMO_STDOUT = """\
noun proposes (10.0, 20.0), verb proposes (14.0, 24.0)
hard mean: (12.0, 22.0)

confidence sweep (verb confidence fixed at 0.5):
  c_noun  w_noun  w_verb     fused interval
    0.10   0.167   0.833     (13.333, 23.333)
    0.30   0.375   0.625     (12.500, 22.500)
    0.50   0.500   0.500     (12.000, 22.000)
    0.70   0.583   0.417     (11.667, 21.667)
    0.90   0.643   0.357     (11.429, 21.429)

confident noun (0.92) vs uncertain verb (0.31):
  fused interval (11.008, 21.008) sits near the noun's
"""


def run_demo(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)  # a demo must remove its temporary files: checked below
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert not any(tmp_path.iterdir())
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_fusion_demo_output_is_pinned(tmp_path):
    assert run_demo(ROOT / "demos" / "03_fusion_weights.py", tmp_path) == FUSION_DEMO_STDOUT
