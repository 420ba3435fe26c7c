"""qsusy: exact q-deformed oscillator intertwining.

Builds the symmetric q-calculus (q-numbers, Jackson-style derivative,
q-exponential) over exact rationals, the deformed Gaussian vacua and their
drift series, first-order intertwiners and the second-order q-nonlocal
partner operators they factorize, plus the classical (q = 1) oracles used to
verify every identity coefficient-exactly. Series and operators are real;
Gaussian rationals are the scalar type at the boundary, and a complex series
document is read as two real series.

The package exports every name of its five library modules; each module's
``__all__`` is the one list of its public names. ``verify`` and ``cli`` are
imported by name: ``qsusy.verify``, ``qsusy.cli``.
"""

__version__ = "0.1.0"

from . import operators, qcore, qspecial, serialize, series
from .qcore import *
from .series import *
from .qspecial import *
from .operators import *
from .serialize import *

__all__ = ["__version__", *qcore.__all__, *series.__all__, *qspecial.__all__,
           *operators.__all__, *serialize.__all__]
