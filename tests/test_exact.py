"""Unit tests for the exact perfect-square test."""

from surdsym.exact import is_square


class TestIsqrt:
    """``is_square``, which decides n by its integer square root."""

    def test_big_value(self):
        """Exact past the 53 bits of a float's square root."""
        r = 10 ** 30 + 1
        assert is_square(r * r)
        assert not is_square(r * r - 1) and not is_square(r * r + 1)
        assert not is_square(10 ** 60 + 12345)

    def test_is_square(self):
        squares = {i * i for i in range(100)}
        for n in range(2000):
            assert is_square(n) == (n in squares)
        assert not is_square(-4)
