"""Greedy pulse-train control of mixed rotor states.

Builds the kinematically optimal target density matrix of a thermal rigid
rotor, runs the S1/S2 sudden-kick strategies toward it, and analyzes
controllability and fixed points of the iteration; its modules are the API.
"""

__version__ = "0.1.0"
