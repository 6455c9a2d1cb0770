"""The package's names: each module and each exported function has its
own, and the names the benchmark worker imports stay importable."""

import ast
import pkgutil
from inspect import ismodule
from itertools import islice
from pathlib import Path

import pytest

import modpascal
import modpascal.kernel as kernel
from modpascal.bfile import ROUTES

WORKER = Path(__file__).parents[1] / "perfbench" / "worker.py"


def _worker_imports():
    """The names perfbench/worker.py imports from the package."""
    return [alias.name for node in ast.walk(ast.parse(WORKER.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "modpascal"
            for alias in node.names]


def test_no_module_shares_a_name_with_an_export():
    modules = {info.name for info in pkgutil.iter_modules(modpascal.__path__)}
    assert modules & set(modpascal.__all__) == set()


@pytest.mark.parametrize("name", _worker_imports())
def test_worker_imports_resolve(name):
    value = getattr(modpascal, name)
    if name in {"bfile", "verify"}:
        assert ismodule(value)
    else:
        assert callable(value) and not ismodule(value)


def test_worker_imports_include_the_modules_and_the_kernel():
    assert {"bfile", "verify", "continuant", "stern"} <= set(_worker_imports())


def test_continuant_and_stern_are_the_kernel_functions():
    from modpascal import continuant, stern
    assert (continuant, stern) == (kernel.continuant, kernel.stern)


def test_no_module_under_a_function_name():
    with pytest.raises(ModuleNotFoundError):
        import modpascal.continuant  # noqa: F401
    with pytest.raises(ModuleNotFoundError):
        import modpascal.stern  # noqa: F401


def test_the_continuant_route_calls_the_kernel_block(monkeypatch):
    assert ismodule(kernel)
    want = [kernel.diagonal_sum_fast(n) for n in range(1024, 1624)]
    calls = []
    for name in ("_bits_product", "_values"):
        def spy(*args, name=name, fn=getattr(kernel, name), **kwargs):
            calls.append((name, *args[:2]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(kernel, name, spy)
    assert list(islice(ROUTES["d"]["continuant"](1024), 600)) == want
    # d(1024..1623) is e(512..811): blocks c = 2 and 3 of h = c >> 8 = 0,
    # one scan of t(0), no bits, from (1, 0), then each block from the row
    # after the byte t(c) = c ^ c >> 1, 11 and then 10
    assert calls == [("_bits_product", (1, 0), 0),
                     ("_values", 2, 1), ("_values", 2, 1)]
