import ast
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gridduel

from .conftest import cli_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
# Top-level names no user-facing doc has to show: the two errors a caller catches.
UNDOCUMENTED = {"ConfigError", "ModelValidationError"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Demos write charts next to themselves, so run a copy.
    script = shutil.copy(demo, tmp_path)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_public_name_is_documented():
    """Each name the package imports at top level appears in the README or a demo."""
    tree = ast.parse(Path(gridduel.__file__).read_text(encoding="utf-8"))
    public = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
              for a in node.names}
    docs = README + "".join(d.read_text(encoding="utf-8") for d in DEMOS)
    assert UNDOCUMENTED <= public
    assert {name for name in public if not re.search(rf"\b{name}\b", docs)} <= UNDOCUMENTED
