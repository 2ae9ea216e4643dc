"""Correlation-operator dynamics for finite quantum many-particle systems.

The package models states of a system with a non-fixed, finite number of
particles by sequences of trace-class operators, moves between the density
and correlation pictures by partition sums, evolves them with exact
eigendecomposed propagators, and reduces them to marginal operators and
scalar observables.  Everything is verified against independent
constructions at small dimension.

Names are imported from their modules (``qcorr.partitions``,
``qcorr.operators``, ...); the package itself binds only ``__version__``,
so importing one module loads only what that module needs.
"""

__version__ = "0.23.0"
