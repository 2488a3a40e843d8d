"""Every name a ``repro`` package lists in ``__all__`` must resolve.

A stale entry breaks only ``from repro.<package> import *``, which nothing
else in the suite exercises.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + [
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    missing = [
        entry for entry in getattr(package, "__all__", ())
        if not hasattr(package, entry)
    ]
    assert missing == []
