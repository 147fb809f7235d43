"""Exact arithmetic for Markov triples and their geometry.

Everything numerical is decided over arbitrary-precision integers,
fractions.Fraction, or sign-exact quadratic surds; floating point appears
only in human-readable previews.
"""
