"""conecalc: eigenvalue-cone calculus, Riesz potentials, and monotone
wide-stencil Dirichlet solvers with removable-singularity experiments.

Each name is imported from its module: ``cones``, ``riesz``, ``grids``,
``solver`` or ``symmat`` (``cli`` is the command-line front end)."""

__version__ = "0.1.0"
