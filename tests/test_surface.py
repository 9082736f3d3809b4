"""The public surface: `kneserlab.__all__` names each export once, and a
star import binds every one of them."""

from __future__ import annotations

import kneserlab


def test_star_import_binds_every_exported_name():
    names = kneserlab.__all__
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec("from kneserlab import *", namespace)
    assert [name for name in names if name not in namespace] == []
