import importlib
import inspect
import pkgutil

import pytest

import likenet

MODULES = [
    module
    for module in (
        importlib.import_module(f"likenet.{info.name}")
        for info in pkgutil.iter_modules(likenet.__path__)
        if info.name != "__main__"
    )
    if hasattr(module, "__all__")
]


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
