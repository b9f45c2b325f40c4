"""Shared hypothesis settings for the property suites, and the rows of
the ``(k, v)`` tables their fixed programs read.

``prop_settings(n)`` is the per-test example budget; the CI property job
multiplies every budget via ``FERRY_EXAMPLES_MULT`` (e.g. ``5`` turns a
40-example tier-1 run into a 200-example sweep) without the test files
hard-coding two sets of numbers.
"""

import os

from hypothesis import settings
from hypothesis import strategies as st

#: Example-count multiplier (CI's full property job sets this > 1).
EXAMPLES_MULT = float(os.environ.get("FERRY_EXAMPLES_MULT", "1"))


def prop_settings(max_examples: int, **kwargs) -> settings:
    """Hypothesis settings with the suite-wide multiplier applied."""
    kwargs.setdefault("deadline", None)
    return settings(max_examples=max(1, int(max_examples * EXAMPLES_MULT)),
                    **kwargs)


@st.composite
def pair_rows(draw) -> list:
    """Rows of a ``(k, v)`` table: none, duplicate-heavy keys (and whole
    duplicate rows), or a general handful."""
    mode = draw(st.integers(0, 3))
    if mode == 0:
        return []
    if mode == 1:
        k = draw(st.integers(0, 1))
        return [(k, v) for v in draw(st.lists(st.integers(-1, 1),
                                              min_size=2, max_size=8))]
    return draw(st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)),
                         max_size=8))

