"""Pathfinder-style algebra optimizer (rewrite pipeline)."""

from .pipeline import PassStats, optimize_bundle

__all__ = ["PassStats", "optimize_bundle"]
