"""Every public item must carry a docstring (deliverable: documented API)."""

import importlib
import inspect

import pytest

PUBLIC_PACKAGES = [
    "repro",
    "repro.algorithms",
    "repro.convert",
    "repro.graphs",
    "repro.parallel",
    "repro.tables",
    "repro.workflows",
    "repro.memory",
    "repro.core",
]


def _public_items():
    for package_name in PUBLIC_PACKAGES:
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            item = getattr(package, name)
            if callable(item) or inspect.isclass(item):
                yield f"{package_name}.{name}", item


@pytest.mark.parametrize("qualified,item", list(_public_items()), ids=lambda p: p if isinstance(p, str) else "")
def test_public_item_has_docstring(qualified, item):
    doc = inspect.getdoc(item)
    assert doc and doc.strip(), f"{qualified} lacks a docstring"


def test_every_public_class_method_documented():
    from repro.core.engine import Ringo
    from repro.graphs.csr import CSRGraph
    from repro.graphs.directed import DirectedGraph
    from repro.graphs.network import Network
    from repro.graphs.undirected import UndirectedGraph
    from repro.tables.table import Table

    undocumented = []
    for cls in (Ringo, Table, DirectedGraph, UndirectedGraph, Network, CSRGraph):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_") or not callable(member):
                continue
            if not (inspect.getdoc(member) or "").strip():
                undocumented.append(f"{cls.__name__}.{name}")
    assert not undocumented, f"undocumented methods: {undocumented}"
