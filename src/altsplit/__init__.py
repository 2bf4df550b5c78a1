"""Alternating matrix-splitting iterations for real linear systems.

Single-, two- and three-step alternating schemes built on splittings
A = U - V, with group-inverse support for index-1 singular systems,
splitting classification, convergence and semiconvergence diagnostics,
and benchmark problem generators.  The diagnostics work on dense arrays;
the sweeps apply A as a CSR operator when A is large and sparse.

Each public name is declared once, in its module's ``__all__``; the
package exports exactly those of the six library modules below.
:mod:`altsplit.generators` and :mod:`altsplit.cli` stay submodules.
"""

from . import analysis, core, errors, problems, schemes, splittings
from .analysis import *
from .core import *
from .errors import *
from .problems import *
from .schemes import *
from .splittings import *

__version__ = "0.1.0"

__all__ = [*analysis.__all__, *core.__all__, *errors.__all__,
           *problems.__all__, *schemes.__all__, *splittings.__all__]
