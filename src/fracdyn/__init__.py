"""Discrete-time fractional-order dynamical systems toolkit.

Subpackages cover the full pipeline: Grunwald-Letnikov kernels (fraccore),
model containers and finite-memory lifts (model), forward simulation
(simulate), stability / controllability / observability / frequency response
(analysis), bilevel bisection + least-squares identification (sysid),
minimum-energy state estimation (estimate), and receding-horizon predictive
control with box input constraints (mpc).  A batch CLI wires the pieces
together (`python -m fracdyn` or `fracdyn`).  fracdyn imports numpy only.
"""

from .errors import *
from .fraccore import *
from .model import *
from .simulate import *
from .analysis import *
from .sysid import *
from .estimate import *
from .mpc import *

__version__ = "0.1.0"
