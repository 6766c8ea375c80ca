"""Documentation stays runnable: README's ``python`` examples execute, and
every name a module exports in ``__all__`` exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ccnscale

_README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    """Each ```python block of README, padded with blank lines so that a
    traceback names its line in README."""
    text = _README.read_text(encoding="utf-8")
    blocks = re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)
    return [
        pytest.param("\n" * text.count("\n", 0, m.start(1)) + m.group(1), id=f"block{i}")
        for i, m in enumerate(blocks)
    ]


def _modules():
    yield ccnscale
    for info in pkgutil.walk_packages(ccnscale.__path__, "ccnscale."):
        try:
            yield importlib.import_module(info.name)
        except ImportError:
            # The compiled backend without a C compiler; the package falls
            # back to the Python one.
            assert info.name == "ccnscale._kernels._fast"


def test_readme_has_python_examples():
    assert len(_python_blocks()) >= 2


@pytest.mark.parametrize("source", _python_blocks())
def test_readme_example_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(_README), "exec"), {"__name__": "__readme__"})


def test_every_exported_name_resolves():
    checked = 0
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name!r}"
            checked += 1
    assert checked > 50
