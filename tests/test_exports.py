"""Every name a locpriv module exports must exist in that module.

A stale entry in ``__all__`` fails only when someone imports it (or on
``from module import *``), so deletions are checked here.
"""
import locpriv


def test_all_names_exist():
    for module_name in locpriv.__all__:
        module = getattr(locpriv, module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} is not defined"
