"""Three-state quantum walks on the line: simulation, band structure, localization.

Each module's ``__all__`` is its one list of public names; the package
republishes them and adds ``__version__``.  Constants stay in their modules.
"""

from . import coins, localization, spectral, walk
from .coins import *
from .localization import *
from .spectral import *
from .walk import *

__version__ = "0.1.0"

__all__ = [*coins.__all__, *localization.__all__, *spectral.__all__,
           *walk.__all__, "__version__"]
