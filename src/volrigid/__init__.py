"""Volume rigidity toolkit for cusped hyperbolic 3-manifolds.

The package mechanizes the arithmetic that pins down a manifold by its
Dehn filling volumes: gap analysis on the primitive values of cusp
quadratic forms, constructive prime sequences realizing prescribed
gaps, truncated volume-change asymptotics with uniqueness certificates,
and an exhaustive census of mutant fully augmented links sharing one
volume.  Everything is pure Python on top of the standard library; the
``volrigid`` command line fronts every module with deterministic JSON.

The package itself exports nothing: import each name from the module
that defines it, as in ``from volrigid.quadform import IntQuadForm``.
"""
