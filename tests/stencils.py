"""Finite-difference helpers that validate analytic derivatives in the tests."""


def central5(f, x: float, h: float):
    """Five-point central difference (O(h^4))."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12.0 * h)
