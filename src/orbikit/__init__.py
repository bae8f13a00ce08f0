"""Exact Chen-Ruan orbifold Hodge diamonds and derived-equivalence invariants.

Everything is exact integer/rational arithmetic.  The core objects are
`HodgeDiamond` (sparse, possibly rationally graded), `InertiaComponent`
and `OrbifoldPresentation` (sector data), and operations assembling
diamonds, computing Hochschild column sums, checking the numeric
constraints derived equivalence imposes, and reconstructing integer
diamonds in dimension up to three.
"""

from . import diamond, errors, inertia, invariants, quotient
from .diamond import *
from .errors import *
from .inertia import *
from .invariants import *
from .quotient import *

__version__ = "0.1.0"

__all__ = [*diamond.__all__, *inertia.__all__, *quotient.__all__, *invariants.__all__, *errors.__all__, "__version__"]
