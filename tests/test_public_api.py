import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import likenet

PACKAGE = {
    info.name: importlib.import_module(f"likenet.{info.name}")
    for info in pkgutil.iter_modules(likenet.__path__)
    if info.name != "__main__"
}
MODULES = [module for module in PACKAGE.values() if hasattr(module, "__all__")]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_lists_the_public_functions_and_classes(module):
    """__all__ names every public function and class the module defines, and
    each name it lists exists; it may also list public constants."""
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    listed = set(module.__all__)
    assert len(listed) == len(module.__all__), "a name is listed twice"
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert sorted(defined - listed) == []
    assert sorted(
        name for name in listed - defined
        if inspect.isfunction(getattr(module, name)) or inspect.isclass(getattr(module, name))
    ) == []


def test_readme_names_resolve():
    """Every backticked `module.attr` in README.md (a call's arguments
    allowed) names an attribute of that likenet module, and every
    backticked UPPER_CASE name but a LIKENET_* variable is a module
    constant of the package."""
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    dotted = [match.groups() for match in (re.fullmatch(r"(\w+)\.(\w+)(?:\(.*\))?", span)
                                           for span in spans) if match and match[1] in PACKAGE]
    assert dotted
    assert [f"{module}.{name}" for module, name in dotted
            if not hasattr(PACKAGE[module], name)] == []
    constants = {
        name
        for module in PACKAGE.values()
        for name, value in vars(module).items()
        if name.isupper() and not (inspect.ismodule(value) or inspect.isclass(value)
                                   or inspect.isroutine(value))
    }
    upper = {span for span in spans
             if re.fullmatch(r"[A-Z][A-Z0-9_]+", span) and not span.startswith("LIKENET_")}
    assert upper
    assert sorted(upper - constants) == []
