"""The package's public names are exactly ``plethysm.__all__``."""

import plethysm


def test_star_import_binds_exactly_all():
    # A stale entry, one whose definition is gone, makes the import fail.
    names = plethysm.__all__
    assert len(names) == len(set(names)), sorted(name for name in names if names.count(name) > 1)
    namespace = {}
    exec("from plethysm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
