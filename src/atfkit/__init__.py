"""atfkit: exact moment polygons, base diagrams, and recurrence orbits.

The package mechanizes one construction end to end, in exact arithmetic:
corner-chopped rectangles with their lattice distance function, almost
toric base diagrams obtained by trading and sliding nodes, the four-round
strip-shear map that rotates every level polygon by its own exact arc
advance, the induced circle dynamics level by level, the homology-level
twist-class computation, an applicability screen for general Delzant
polygons, and a deterministic SVG renderer.

The package exports exactly the names in each library module's
``__all__``; helpers such as ``plane.orient`` import from their module.
"""

from . import classify, diagram, homology, orbits, plane, polygon, recurrence, render, scalars
from .classify import *
from .diagram import *
from .homology import *
from .orbits import *
from .plane import *
from .polygon import *
from .recurrence import *
from .render import *
from .scalars import *

__version__ = "0.1.0"

_MODULES = (classify, diagram, homology, orbits, plane, polygon, recurrence, render, scalars)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
