"""Exact-arithmetic workbench for 3-dimensional transposed Poisson algebras."""
