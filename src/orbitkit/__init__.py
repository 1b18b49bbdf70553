"""orbitkit: cellular automata, Turing machines, and polynomial-map orbits.

The pieces fit together like this: :mod:`orbitkit.life` is a sparse
Game of Life engine on the full plane; :mod:`orbitkit.lifepoly` rebuilds
one grid generation as a polynomial map on finitely supported integer
points (:mod:`orbitkit.polymap` for the algebra, :mod:`orbitkit.dynamics`
for points and maps); :mod:`orbitkit.turing` simulates deterministic
Turing machines; :mod:`orbitkit.cycles` and :mod:`orbitkit.orbit` turn
"does this trajectory ever repeat?" into budgeted, honest semi-decisions.
"""

_SUBMODULES = frozenset({"cli", "cycles", "dynamics", "life", "lifepoly", "orbit", "polymap",
                         "turing"})


def __getattr__(name):
    # ``orbitkit.dynamics`` and the like import the module on first use, so
    # ``import orbitkit`` loads nothing else and annotations can still name it
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_int(value, name: str, minimum=None, error=ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an ``int`` itself, not a
    ``bool`` or any other subclass, and at least ``minimum`` when one is given:
    the one rule for every integer argument of the library."""
    if type(value) is not int or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
