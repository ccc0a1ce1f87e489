"""Synthetic web-crawl-like text corpus.

Stands in for the paper's C4/FineWeb slice (0.8 T characters is not
shippable offline). What matters for the substring-search experiments is
preserved: a Zipfian vocabulary (so compression ratios and FM-index
sizes behave like natural text), document lengths spread over an order
of magnitude, and queries drawn from the corpus itself (hits) or
perturbed (misses).
"""

from __future__ import annotations

import numpy as np

CONSONANTS = "bcdfghjklmnpqrstvwz"
VOWELS = "aeiou"


def _make_vocabulary(size: int, rng: np.random.Generator) -> list[str]:
    """Pronounceable pseudo-words, deterministic per seed."""
    words = set()
    while len(words) < size:
        syllables = int(rng.integers(1, 5))
        word = "".join(
            CONSONANTS[rng.integers(len(CONSONANTS))]
            + VOWELS[rng.integers(len(VOWELS))]
            for _ in range(syllables)
        )
        words.add(word)
    return sorted(words)


#: Skew of word frequencies (rank ``r`` is drawn with weight ``r**-1.3``).
ZIPF_EXPONENT = 1.3


class TextWorkload:
    """Deterministic generator of documents and substring queries."""

    def __init__(
        self,
        seed: int = 0,
        vocabulary_size: int = 4000,
    ) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.vocabulary = _make_vocabulary(vocabulary_size, self.rng)
        ranks = np.arange(1, vocabulary_size + 1, dtype=np.float64)
        weights = ranks**-ZIPF_EXPONENT
        self._probs = weights / weights.sum()

    def _words(self, count: int) -> list[str]:
        idx = self.rng.choice(len(self.vocabulary), size=count, p=self._probs)
        return [self.vocabulary[i] for i in idx]

    def document(self, target_chars: int) -> str:
        """One document of roughly ``target_chars`` characters."""
        words: list[str] = []
        length = 0
        while length < target_chars:
            sentence = self._words(int(self.rng.integers(5, 15)))
            sentence[0] = sentence[0].capitalize()
            text = " ".join(sentence) + "."
            words.append(text)
            length += len(text) + 1
        return " ".join(words)

    def documents(self, count: int, avg_chars: int = 400) -> list[str]:
        """``count`` documents, lengths lognormally spread around the
        average (web documents are heavy-tailed)."""
        sizes = self.rng.lognormal(mean=np.log(avg_chars), sigma=0.6, size=count)
        return [self.document(max(40, int(s))) for s in sizes]

    def present_queries(
        self, documents: list[str], count: int, length: int = 12
    ) -> list[str]:
        """Substrings sampled from real documents (guaranteed hits)."""
        queries = []
        for _ in range(count):
            doc = documents[int(self.rng.integers(len(documents)))]
            if len(doc) <= length:
                queries.append(doc)
                continue
            start = int(self.rng.integers(len(doc) - length))
            queries.append(doc[start : start + length])
        return queries

    def absent_queries(self, count: int, length: int = 12) -> list[str]:
        """Random strings that almost surely miss (uppercase + digits
        never appear mid-word in generated text)."""
        alphabet = "QXZ0123456789"
        return [
            "".join(
                alphabet[int(self.rng.integers(len(alphabet)))]
                for _ in range(length)
            )
            for _ in range(count)
        ]
