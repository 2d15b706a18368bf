"""The package holds nothing between calls: every memo lives in an object
its caller owns, so what a call builds is freed once its result is."""

import gc
import importlib
import pkgutil
import tracemalloc

import plethysm
from plethysm import RecurrenceCache, dent_differences, h3, plethysm_oracle


def test_no_module_holds_a_cache():
    held = []
    for info in pkgutil.iter_modules(plethysm.__path__, "plethysm."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") or isinstance(value, RecurrenceCache):
                held.append(f"{info.name}.{name}")
    assert not held, f"process-wide caches: {held}"


def test_calls_without_a_cache_leave_nothing_held():
    tracemalloc.start()
    try:
        h3(200)
        for n, diff in dent_differences(3, 150):
            if n == 80:  # a sweep dropped part way frees its sums and layers
                break
        del diff
        plethysm_oracle(3, 6)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1e6, f"{held / 1e6:.3f} MB still held"
