"""orbitkit: cellular automata, Turing machines, and polynomial-map orbits.

The pieces fit together like this: :mod:`orbitkit.life` is a sparse
Game of Life engine on the full plane; :mod:`orbitkit.lifepoly` rebuilds
one grid generation as a polynomial map on finitely supported integer
points (:mod:`orbitkit.polymap` for the algebra, :mod:`orbitkit.dynamics`
for points and maps); :mod:`orbitkit.turing` simulates deterministic
Turing machines; :mod:`orbitkit.cycles` and :mod:`orbitkit.orbit` turn
"does this trajectory ever repeat?" into budgeted, honest semi-decisions.
"""

from . import cli, cycles, dynamics, life, lifepoly, orbit, polymap, turing
from .cycles import CycleVerdict, Exhausted, Periodic, Terminated
from .dynamics import (
    FiniteComponentMap,
    GridRuleMap,
    PairingSpec,
    PolyMapDesc,
    SparsePoint,
)
from .orbit import StabilityVerdict, Stable, Unknown
from .polymap import Polynomial, constant, parse_poly, variable
from .turing import Configuration, TMDesc

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "CycleVerdict",
    "Exhausted",
    "FiniteComponentMap",
    "GridRuleMap",
    "PairingSpec",
    "Periodic",
    "PolyMapDesc",
    "Polynomial",
    "SparsePoint",
    "StabilityVerdict",
    "Stable",
    "TMDesc",
    "Terminated",
    "Unknown",
    "cli",
    "constant",
    "cycles",
    "dynamics",
    "life",
    "lifepoly",
    "orbit",
    "parse_poly",
    "polymap",
    "turing",
    "variable",
]
