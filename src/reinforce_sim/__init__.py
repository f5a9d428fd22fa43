"""Simulation and verification toolkit for linearly reinforced two-particle
walks on the integer line, their marble-urn representation, the coupled
random-environment sandwich, and birth-death recurrence criteria."""

__version__ = "0.3.5"
