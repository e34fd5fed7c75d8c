"""Fixtures shared by the test modules."""

import numpy as np
import pytest
from memos import drop_memos


@pytest.fixture
def decompositions(monkeypatch):
    """One-element list counting the matrices numpy.linalg.eigh/eigvalsh decompose, from
    no kept working point in cem."""
    drop_memos()
    count = [0]

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            count[0] += int(np.prod(np.shape(a)[:-2], dtype=int))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    return count
