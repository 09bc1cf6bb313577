"""Certificates, rigidity probes, and grid estimators for unit-distance
multilinear forms on finite connected graphs.

Import each name from the submodule that defines it, for example
`from lpgraph.certificates import certify`.  The package itself loads
nothing, so the exact layer (graphs, simplex, exponents, certificates)
runs on the standard library alone; rigidity and grids need numpy, and
the estimator numpy and scipy.
"""

__version__ = "0.1.0"
