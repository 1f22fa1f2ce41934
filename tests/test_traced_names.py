import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    """``TRACED`` of the benchmark's tracer, read from its source: the tracer
    is imported only after the benchmark has set the BLAS thread count."""
    tree = ast.parse(TRACING.read_text(), str(TRACING))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


@pytest.mark.parametrize("module,name", [(module, name)
                                         for module, names in _traced().items()
                                         for name in names])
def test_every_traced_function_exists(module, name):
    # the tracer looks each name up when it installs its wrappers, so a
    # traced function removed from the package fails every traced run
    assert callable(getattr(importlib.import_module(f"koopid.{module}"), name, None))
