"""Production never imports the executable specification, and the spec
shares no access path with production.

:mod:`repro.semantics.spec` is the tests' reference: a run through it
must not take the probes, the grouped step or the closures it is compared
with, and a production run must not reach it.  The first check drives
each production surface in a fresh process and then looks at
``sys.modules``; the second reads the spec's own imports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro.semantics.spec as spec

ROOT = Path(__file__).resolve().parents[2]

PRODUCTION = """
import sys
import tempfile

from repro import Engine
from repro.concurrent import ConcurrentExecutor
from repro.durability import DurableEngine
from repro.usecases.webservice import AuctionService
from repro.xmark import XMarkConfig, generate_auction_xml

engine = Engine()
engine.load_document("d", '<r><a k="1"/><a k="2"/></r>')
assert engine.execute('count($d//a[@k = "2"])').first_value() == 1
with ConcurrentExecutor(engine, workers=1) as executor:
    assert executor.execute("count($d//a)").first_value() == 2
with tempfile.TemporaryDirectory() as directory:
    durable = DurableEngine(directory)
    durable.execute(
        "declare variable $x := <x/>; snap insert { <y/> } into { $x }"
    )
    durable.close()
xml = generate_auction_xml(XMarkConfig(persons=20, items=10))
service = AuctionService(xml)
service.get_item("item1", "person2")
service.engine.execute(
    "snap { for $p in $auction//person "
    "return insert { <mark/> } into { $p } }"
)
assert service.engine.execute("count($auction//mark)").first_value() == 20
assert "repro.semantics.spec" not in sys.modules, "imported the spec"
"""

#: Packages that hold an access path or an executor the spec must not
#: share: closures, plans, indexes, tracing and execution control.
FORBIDDEN = (
    "repro.semantics.compiled",
    "repro.algebra",
    "repro.index",
    "repro.obs",
    "repro.concurrent",
)


def test_production_surfaces_never_import_the_spec(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", PRODUCTION],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]


def imported_modules(path: str) -> set[str]:
    """Every module a file's import statements name."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_the_spec_imports_no_access_path():
    imported = imported_modules(spec.__file__)
    assert "repro.semantics.evaluator" in imported
    shared = {
        name for name in imported
        if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
    }
    assert not shared
