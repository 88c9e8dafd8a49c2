"""qrpat: exact predictors and deterministic renderers for the parabola
patterns of quadratic-residue plots.  Only ``parabola`` loads with the package:
the first use of another name imports ``patterns`` and ``render`` (PEP 562)."""

from . import parabola
from .parabola import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name: str):
    names = globals()
    if "__all__" not in names:
        modules = [parabola]
        for module in ("patterns", "render"):
            __import__(f"{__name__}.{module}")  # by full name: "from . import" would recurse
            modules.append(names[module])
        names.update((key, getattr(mod, key)) for mod in modules[1:] for key in mod.__all__)
        names["__all__"] = sorted({key for mod in modules for key in mod.__all__})
    if name in names:
        return names[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
