"""Completely degenerate equilibria of sine-coupled phase oscillators on graphs.

Detection, exact enumeration via quarter-turn labelings, the two-way
correspondence with mod-4 Euler circuits, bipartite constructions for
non-identical oscillators, saddle instability probes, and Monte Carlo
rarity experiments.
"""

# each module's __all__ is its public API
from .cli import *
from .degeneracy import *
from .docio import *
from .dynamics import *
from .experiments import *
from .graphs import *
from .oscillator import *
from .render import *

__version__ = "0.1.0"
