"""Individual rewrite passes of the algebra optimizer."""

from .cse import eliminate_common_subexpressions
from .constfold import fold_constants
from .icols import prune_unneeded_columns
from .projmerge import merge_projections
from .properties import apply_property_rewrites

__all__ = [
    "apply_property_rewrites",
    "eliminate_common_subexpressions",
    "fold_constants",
    "merge_projections",
    "prune_unneeded_columns",
]
