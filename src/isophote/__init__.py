"""Integer-exact detection of intensity discontinuities and occluding contours.

A pixel that lies on the boundary of two different sublevel sets of the
intensity cannot belong to a smooth, unoccluded view of a smooth surface;
scanning a whole schedule of thresholds therefore flags discontinuities
and occlusions with no floating-point arithmetic at all. The package also
carries the rotated-gradient field machinery (level-curve tracing, zero
filtering), a synthetic pinhole-camera renderer that manufactures ground
truth for end-to-end checks, and a Netpbm-based CLI.
"""

from . import detector, field, netpbm, raster, scene
from .detector import *  # noqa: F401,F403
from .field import *  # noqa: F401,F403
from .netpbm import *  # noqa: F401,F403
from .raster import *  # noqa: F401,F403
from .scene import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module's __all__ is its public surface; the package re-exports exactly those names.
__all__ = [*detector.__all__, *field.__all__, *netpbm.__all__, *raster.__all__, *scene.__all__, "__version__"]
