"""orbitkit: cellular automata, Turing machines, and polynomial-map orbits.

The pieces fit together like this: :mod:`orbitkit.life` is a sparse
Game of Life engine on the full plane; :mod:`orbitkit.lifepoly` rebuilds
one grid generation as a polynomial map on finitely supported integer
points (:mod:`orbitkit.polymap` for the algebra, :mod:`orbitkit.dynamics`
for points and maps); :mod:`orbitkit.turing` simulates deterministic
Turing machines; :mod:`orbitkit.cycles` and :mod:`orbitkit.orbit` turn
"does this trajectory ever repeat?" into budgeted, honest semi-decisions.
"""
