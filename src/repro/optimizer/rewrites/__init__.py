"""Individual rewrite families of the algebra optimizer."""

from .icols import prune_unneeded_columns
from .properties import simplify

__all__ = ["prune_unneeded_columns", "simplify"]
