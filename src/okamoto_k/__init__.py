"""Self-affine function family, its parameter derivative K, and the ternary
classification of K's infinite-derivative points."""

__version__ = "0.1.0"
