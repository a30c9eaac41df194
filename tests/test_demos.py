import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_what_it_promises():
    # the README's Python block, run as written; its comments promise
    # ~0.4911 (certified >= log phi) and 1.271553... < 1.292481...
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    entropy_line, dims_line = proc.stdout.splitlines()
    value = float(entropy_line)
    assert round(value, 4) == 0.4911
    assert value >= math.log((1 + math.sqrt(5)) / 2)
    mdim_h, mdim_m = dims_line.split()
    assert mdim_h.startswith("1.271553") and mdim_m.startswith("1.292481")
    assert float(mdim_h) < float(mdim_m)
