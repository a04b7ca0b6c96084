"""Every memo in src/ is bounded.

An `lru_cache` with maxsize=None grows for the life of the process.  Each
module of src/hopfscf is imported, and every object that it binds at top level,
or that a top-level class binds, and that carries `cache_info` must report an
int maxsize.  The scan must find as many caches as the source text builds, so a
cache it cannot reach fails the test instead of passing unseen.
"""

import importlib
import inspect
import re

from test_no_dead_src import SRC


def _members(obj):
    """obj and, for a class, its members, unwrapped from static and class methods."""
    yield obj
    if inspect.isclass(obj):
        for member in vars(obj).values():
            yield getattr(member, "__func__", member)


def test_every_cache_in_src_is_bounded():
    caches, built = {}, 0
    for path in sorted(SRC.glob("*.py")):
        built += len(re.findall(r"\blru_cache\(", path.read_text()))
        module = importlib.import_module(f"hopfscf.{path.stem}")
        for value in vars(module).values():
            for obj in _members(value):
                if hasattr(obj, "cache_info"):  # one entry per cache, however often imported
                    caches[id(obj)] = (obj.__qualname__, obj.cache_info().maxsize)
    assert len(caches) == built > 0
    assert [name for name, maxsize in caches.values() if type(maxsize) is not int] == []
