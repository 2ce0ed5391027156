"""Perpetual online fair decision-making: deficit potentials, fairness
instantiations, adversarial lower bounds, discounted memory, and the exact
proportionality-game solver."""

__version__ = "0.1.0"
