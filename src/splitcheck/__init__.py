"""Exact-arithmetic verification of line-bundle splitting obstructions.

Graded cohomology rings with rational coefficients, characteristic classes
of sums of complex line bundles, certified exhaustive integer searches, the
chi_y genus with its congruences, and representation-dimension obstructions,
all over exact rationals with machine-checkable certificates.

The package root holds only `__version__`: every other name is imported
from its module (`splitcheck.genus.chi_y`, `splitcheck.cli.run_case`), so
importing one module loads only what that module imports.
"""

__version__ = "0.1.0"
