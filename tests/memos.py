"""The one-entry theta-half memos of qmet.cem, emptied where a test counts decompositions."""

from qmet import cem


def drop_memos():
    """Empty cem's theta-half memos: the next analytic call decomposes H(theta) again."""
    cem._theta_half.cache_clear()
    cem._optimum_half.cache_clear()
