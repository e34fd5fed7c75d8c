"""The kept working point of qmet.cem, dropped where a test counts decompositions."""

from qmet import cem


def drop_memos():
    """Drop cem's kept point, and with it the jet and level jet it keeps: the next analytic
    call decomposes H(theta) again."""
    cem._kept.clear()
