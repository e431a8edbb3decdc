"""Every exported name resolves, so a deletion cannot leave a stale export."""
import importlib
import pkgutil

import platoonsim


def test_every_exported_name_resolves():
    modules = [platoonsim] + [
        importlib.import_module(f"platoonsim.{info.name}")
        for info in pkgutil.iter_modules(platoonsim.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
