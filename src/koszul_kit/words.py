"""Indexing of tensor words over a finite alphabet.

Words of length n over d generators are the monomial basis of V^{otimes n};
within a length they are ordered lexicographically by generator index, and
globally degree-major.  The global index order is the deg-lex rewriting
order of ``presentations.WordQuotient``: each rule rewrites the *largest*
word of a relation into smaller ones, and only within the bound its sugar
allows, so the chosen basis monomials (the standard words) are
lexicographically least in each degree.
"""

from __future__ import annotations

from itertools import product


def words_of_length(d: int, n: int):
    """All words of length n over range(d), in lex order."""
    return [tuple(w) for w in product(range(d), repeat=n)]


def degree_offset(d: int, n: int) -> int:
    """Number of words of length < n (start of the degree-n block)."""
    if d == 1:
        return n
    return (d ** n - 1) // (d - 1)


def word_global_index(word, d: int) -> int:
    """Degree-major index of a word: its block start plus its base-d value."""
    idx = 0
    for a in word:
        idx = idx * d + a
    return degree_offset(d, len(word)) + idx


def pair_index(a: int, b: int, d: int) -> int:
    """Row-major index of the pair (a, b) in V tensor V coordinates."""
    return a * d + b


def word_weight(word, weights) -> int:
    return sum(weights[a] for a in word)
