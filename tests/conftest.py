import pytest

from tracedet.sl2exact import GaussianInt, ScaledMatrix


class _Liar(int):
    """An int that multiplies as one more than it divides."""

    def __mul__(self, other):
        return (int(self) + 1) * other

    __rmul__ = __mul__


@pytest.fixture
def corrupt_pivot_matrix():
    """A 3x3 matrix over Z[i] whose first pivot is 5 to the division and 6 to
    every product, so the second elimination step divides by the wrong
    pivot: (6*4 - 1)*(6*7 - 3) - (6*2 - 1)*(6*1 - 3) = 864 is not a multiple of 5."""
    rows = [[_Liar(5), 1, 3], [1, 4, 1], [1, 2, 7]]
    return ScaledMatrix([[GaussianInt(x) for x in row] for row in rows], [1, 1, 1], [1, 1, 1])
