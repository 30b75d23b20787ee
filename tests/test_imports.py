"""Import hygiene, each case in a fresh interpreter.

A daemon or a CLI verb imports only what it runs: ``repro/__init__.py``
imports no subpackage, SciPy loads only with the numeric oracles
(``solvers``, the ``workloads.matrices`` builders), the CLI never loads
the service's asyncio stack, and ``http.server`` loads only when a
daemon starts a Prometheus exporter.  Importing each subpackage alone
catches an import cycle that an eager package ``__init__`` would hide
by loading the packages in a lucky order.
"""

import os
import pkgutil
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parent.parent / "src")

SUBPACKAGES = sorted(m.name for m in pkgutil.iter_modules(repro.__path__)
                     if m.ispkg)
ALONE = SUBPACKAGES + ["sim.engine"]


def _fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)


def _loaded_after(module: str) -> set:
    """The names in ``sys.modules`` after importing ``module`` into a
    fresh interpreter."""
    proc = _fresh(f"import sys, {module}\n"
                  "print('\\n'.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _quickstart() -> str:
    """The ``Quickstart::`` literal block of the package docstring."""
    block = repro.__doc__.split("Quickstart::", 1)[1].splitlines()[1:]
    lines = []
    for line in block:
        if line and not line.startswith("    "):
            break
        lines.append(line)
    return textwrap.dedent("\n".join(lines))


def test_subpackages_are_discovered():
    assert {"analysis", "chord", "service", "sim", "solvers",
            "workloads"} <= set(SUBPACKAGES)


@pytest.fixture(scope="module")
def alone_results():
    """One fresh interpreter per module, a few at a time."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        procs = pool.map(lambda name: _fresh(f"import repro.{name}"), ALONE)
        return dict(zip(ALONE, procs))


@pytest.mark.parametrize("name", ALONE)
def test_module_imports_alone(name, alone_results):
    proc = alone_results[name]
    assert proc.returncode == 0, proc.stderr


def test_cli_loads_no_scipy_and_no_asyncio():
    loaded = _loaded_after("repro.cli")
    assert "scipy" not in loaded
    assert "asyncio" not in loaded
    assert "repro.service" not in loaded


@pytest.mark.parametrize("daemon", ["repro.service.server",
                                    "repro.service.gateway"])
def test_daemon_loads_no_scipy_and_no_http_server(daemon):
    loaded = _loaded_after(daemon)
    assert "scipy" not in loaded
    assert "http.server" not in loaded


def test_package_docstring_quickstart_runs_without_scipy():
    code = _quickstart()
    assert "from repro import" in code
    proc = _fresh(code + "\nimport sys\nassert 'scipy' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr
    assert "CELLO speedup:" in proc.stdout
