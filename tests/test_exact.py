"""Unit tests for exact integer square roots."""

from surdsym.exact import is_square, isqrt


class TestIsqrt:
    def test_small_values(self):
        for n in range(2000):
            r = isqrt(n)
            assert r * r <= n < (r + 1) * (r + 1)

    def test_big_value(self):
        n = 10 ** 60 + 12345
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)

    def test_is_square(self):
        squares = {i * i for i in range(100)}
        for n in range(2000):
            assert is_square(n) == (n in squares)
        assert not is_square(-4)
