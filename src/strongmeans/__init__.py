"""Exact dyadic set arithmetic, stopping-time decompositions, dilation
covering checks, and averaged Fourier partial-sum moment experiments on
the one- and two-dimensional torus."""
