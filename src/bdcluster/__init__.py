"""Exact cluster structures attached to minimal Belavin-Drinfeld data.

The package builds, for GL(n) or SL(n) and a pair of simple roots
(alpha, beta), the cluster seed whose Poisson structure is the Sklyanin
bracket of the corresponding classical r-matrix, together with its
quiver and exchange matrix, and verifies the defining properties
(log-canonicity, compatibility, rank, regularity of one-step exchanges)
in exact rational arithmetic.

The package root exports nothing: each name is imported from the module
that defines it (`bdcluster.polyring`, `bdcluster.polymat`,
`bdcluster.bdseed`, `bdcluster.quiver`, `bdcluster.poisson`,
`bdcluster.verify`, `bdcluster.cli`).
"""
