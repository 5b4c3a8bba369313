"""Exact-arithmetic workbench for level-2 elliptic genera and index theory.

Submodules:

* ``rings``        exact scalars (rationals, Gaussian rationals) and ring descriptors
* ``series``       truncated polynomials and half-integer-graded Laurent q-series
* ``manifolds``    cohomology models, virtual tangent data and its root products, builtin catalog, loader
* ``genus``        characteristic series, index densities, twisted indices, cusp expansions
* ``cusp``         internally derived modular generators and modularity verification
* ``localization`` Lefschetz fixed-point sums for circle actions and rigidity checks
* ``obstructions`` reduced-weight invariants, vanishing predictions, lattice/code audits
* ``cli``          command-line frontend
"""

__version__ = "0.1.0"
