"""Boolean explanations for fuzzy classifiers via coherence analysis.

A fuzzy function ``f : [0,1]^n -> [0,1]^m`` is coherent at ``x`` under a
projection ``d`` when ``d(f(x)) == d(f(d(x)))``: rounding the inputs
first and the output last agree.  On coherent functions the projected
behaviour is a genuine Boolean function, which this package extracts,
minimizes into DNF, and reports.  Incoherent functions are first made
coherent by one of two repairs (domain extension with control inputs,
or output modification against a coherent fallback).

Each public name is declared once, in its module's ``__all__``; the
package re-exports those of every module but ``cli``.
"""

from . import coherence, core, errors, experiments, functor, gamma, nn, serialize
from .errors import *  # noqa: F403
from .core import *  # noqa: F403
from .coherence import *  # noqa: F403
from .functor import *  # noqa: F403
from .gamma import *  # noqa: F403
from .nn import *  # noqa: F403
from .experiments import *  # noqa: F403
from .serialize import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *core.__all__,
    *coherence.__all__,
    *functor.__all__,
    *gamma.__all__,
    *nn.__all__,
    *experiments.__all__,
    *serialize.__all__,
]
