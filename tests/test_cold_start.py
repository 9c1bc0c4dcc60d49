"""No library process imports ``scipy.stats``.

``scipy.stats`` alone costs about a second of every process's start-up,
and the library needs none of it: its statistics call the
``scipy.special`` ufuncs through ``repro.core.stats`` (lint rule STA001
keeps it that way).  Each case runs a fresh interpreter, because this
test process has ``scipy.stats`` loaded by the reference tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ABSENT = (
    "import sys\n"
    "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
)


@pytest.mark.parametrize("code", [
    "import repro\n",
    "from repro.bench.cli import main\n"
    f"assert main(['lint', {str(SRC / 'repro')!r}]) == 0\n",
    "from repro.bench.cli import main\n"
    "assert main(['serve', '--tenants', '3', '--records', '2000',\n"
    "             '--seed', '1', '--out', 'serve.jsonl']) == 0\n",
], ids=["import", "lint", "serve"])
def test_process_never_imports_scipy_stats(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code + ABSENT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
