"""Every name a locpriv module exports must exist in that module.

A stale entry in ``__all__`` fails only when someone imports it (or on
``from module import *``), so deletions are checked here, along with the
annotations of every exported function and class.
"""
import inspect
import typing

import locpriv


def test_all_names_exist():
    for module_name in locpriv.__all__:
        module = getattr(locpriv, module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} is not defined"


def test_public_annotations_resolve():
    # Under postponed evaluation an annotation that names a deleted type is
    # never evaluated, so resolve every public function, class and method.
    for module_name in locpriv.__all__:
        module = getattr(locpriv, module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            typing.get_type_hints(obj)
            if inspect.isclass(obj):
                for _, method in inspect.getmembers(obj, inspect.isfunction):
                    typing.get_type_hints(method)
