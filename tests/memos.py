"""The kept working point of qmet.cem, dropped where a test counts decompositions."""

from qmet import cem


def drop_memos():
    """Drop cem's kept point: the next analytic call decomposes H(theta) again."""
    cem._kept.clear()
