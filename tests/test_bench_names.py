"""The benchmark's tracer patches module attributes by name.  A name it
cannot find is skipped at run time, and a layer whose every name is gone
reads null in the result line, so each traced name must stay bound."""

import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


@pytest.fixture(scope="module")
def child():
    """``bench/child.py`` imported without writing a cache into ``bench/``
    and without leaving ``bench/`` on the import path."""
    path, dont_write = sys.path[:], sys.dont_write_bytecode
    before = set(sys.modules)
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_child", os.path.join(BENCH, "child.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
        for name in set(sys.modules) - before:
            where = getattr(sys.modules[name], "__file__", None) or ""
            if os.path.dirname(where) == BENCH:
                del sys.modules[name]


def test_every_traced_name_is_bound_and_callable(child):
    assert child.SPANS
    unbound = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in child.SPANS
        if not callable(getattr(module, attr, None))
    ]
    assert unbound == []
