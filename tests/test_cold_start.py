"""Start-up imports: each process loads only what its command runs.

``scipy.stats`` alone costs about a second of every process's start-up,
and the library needs none of it: its statistics call the
``scipy.special`` ufuncs through ``repro.core.stats`` (lint rule STA001
keeps it that way).  The commands that read only argparse, Python source
or JSONL files load no numpy or scipy at all: ``python -m repro`` builds
the chosen subcommand's arguments only, and the package ``__init__`` files
import a submodule on the first use of one of its names.  Each case runs
a fresh interpreter, because this test process has the engine and
``scipy.stats`` loaded by the reference tests.
"""

import ast
import importlib
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

#: Packages whose ``__init__`` exports lazily (``repro._lazy``).
LAZY_PACKAGES = ("repro", "repro.obs", "repro.analysis", "repro.bench")

SUBCOMMANDS = ("figures", "list", "trace", "lint", "bench", "obs", "serve",
               "testkit")


def _python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
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
    result = _python(["-c", code + ABSENT], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """A directory holding one ``trace query`` run's ``trace.jsonl``."""
    directory = tmp_path_factory.mktemp("trace")
    result = _python(["-m", "repro", "trace", "query", "--out", "trace.jsonl"],
                     directory)
    assert result.returncode == 0, result.stderr[-2000:]
    return directory


@pytest.mark.parametrize("args", [
    ["--help"],
    ["list"],
    ["lint", str(SRC / "repro" / "core" / "stats.py")],
    ["trace", "validate", "trace.jsonl"],
    ["trace", "report", "trace.jsonl"],
    ["trace", "diff", "trace.jsonl", "trace.jsonl"],
    ["trace", "critical-path", "trace.jsonl"],
    ["trace", "flame", "trace.jsonl"],
    ["obs", "expose", "--from", "trace.jsonl", "--text"],
], ids=["help", "list", "lint", "trace-validate", "trace-report", "trace-diff",
        "trace-critical-path", "trace-flame", "obs-expose"])
def test_engine_free_command_loads_no_numpy_or_scipy(args, trace_dir):
    result = _python(["-X", "importtime", "-m", "repro", *args], trace_dir)
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = [
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "repro.bench.cli" in loaded
    heavy = [name for name in loaded
             if name.split(".")[0] in ("numpy", "scipy")]
    assert heavy == []


def test_engine_process_loads_scipy_special_at_import(tmp_path):
    # An engine process pays for scipy.special when it starts, never in
    # its first answer.
    code = (
        "import sys\n"
        "import repro.serve.scheduler\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    result = _python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve(package, tmp_path):
    code = (
        "import importlib\n"
        f"module = importlib.import_module({package!r})\n"
        "listed = dir(module)\n"
        "missing = [name for name in module.__all__ if name not in listed]\n"
        "assert not missing, missing\n"
        "for name in module.__all__:\n"
        "    getattr(module, name)\n"
        "try:\n"
        "    module.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('an unknown name resolved')\n"
    )
    result = _python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_static_imports_match_the_lazy_table(package):
    # The program analyzer reads the TYPE_CHECKING imports; they must name
    # the same modules the lazy table imports at run time.
    module = importlib.import_module(package)
    table = {(source, name) for source, names in module._EXPORTS.items()
             for name in names}
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    static = {
        (node.module, alias.name)
        for block in tree.body
        if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
        for node in block.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert static == table


def test_subpackages_resolve_as_attributes(tmp_path):
    code = (
        "import repro\n"
        "assert repro.storage.SimulatedDisk is repro.SimulatedDisk\n"
        "assert repro.obs.tracer.TRACER is repro.obs.TRACER\n"
    )
    result = _python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help_exits_zero(command, tmp_path):
    result = _python(["-m", "repro", command, "--help"], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.startswith(f"usage: python -m repro {command}")
