"""The package's public surface: every name it exports resolves."""

import rulkit


def test_every_exported_name_resolves():
    assert [name for name in rulkit.__all__ if not hasattr(rulkit, name)] == []
    assert len(set(rulkit.__all__)) == len(rulkit.__all__)


def test_star_import():
    namespace = {}
    exec("from rulkit import *", namespace)
    assert set(rulkit.__all__) <= set(namespace)
