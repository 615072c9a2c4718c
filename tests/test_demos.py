import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from .conftest import cli_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Demos write charts next to themselves, so run a copy.
    script = shutil.copy(demo, tmp_path)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
