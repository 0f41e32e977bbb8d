"""Reference word tests for the suite: every rotation, every cut.

``periods.is_palindromic_cyclic`` and ``periods.is_bipalindromic`` read both
answers off one linear search for the word's reflection, and
``periods.canonical_rotation`` runs Booth's algorithm.  This module decides
them from the definitions instead, by reversing each rotation and, for the
bipalindromic test, each split of a rotation into two odd-length pieces,
and by taking the least of all rotations.
"""


def least_rotation_by_rotation(s):
    """Lexicographically least rotation of s, the minimum of all of them."""
    s = tuple(s)
    return min((s[i:] + s[:i] for i in range(len(s))), default=s)


def palindromic_by_rotation(s) -> bool:
    """True iff some rotation of s reads the same forwards and backwards."""
    s = tuple(s)
    n = len(s)
    dbl = s + s
    return any(dbl[i:i + n] == dbl[i:i + n][::-1] for i in range(n))


def bipalindromic_by_rotation(s) -> bool:
    """True iff some rotation splits into two odd-length plain palindromes."""
    s = tuple(s)
    n = len(s)
    if n == 0 or n % 2 != 0:
        return False
    dbl = s + s
    for i in range(n):
        rot = dbl[i:i + n]
        for cut in range(1, n, 2):  # both pieces must have odd length
            left, right = rot[:cut], rot[cut:]
            if left == left[::-1] and right == right[::-1]:
                return True
    return False
