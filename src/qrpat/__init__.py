"""qrpat: exact predictors and deterministic renderers for the parabola patterns of
quadratic-residue plots.  Loads the library modules ``parabola``, ``patterns`` and
``render`` and re-exports their public names; ``qrpat.cli`` is the command line."""

from . import parabola, patterns, render
from .parabola import *  # noqa: F403
from .patterns import *  # noqa: F403
from .render import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({*parabola.__all__, *patterns.__all__, *render.__all__})
