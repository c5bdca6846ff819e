"""A miniature clause prover with simplification-aware term hints."""

__version__ = "0.1.0"
