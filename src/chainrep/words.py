"""Finite words whose positions carry sets of predicate labels.

A letter is the set of predicates true at a position, stored as a bitmask
over the signature.  Text form: `[., P1, P1+P2]` with `.` for the empty
label set and `+` joining labels.  A marked word additionally distinguishes
an ascending tuple of positions, shown with a `*` suffix on the letter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .formula import Signature


def render_letter(sig: Signature, mask: int) -> str:
    if mask == 0:
        return "."
    return "+".join(name for i, name in enumerate(sig.preds) if mask >> i & 1)


def _parse_letter(sig: Signature, text: str) -> int:
    text = text.strip()
    if text == ".":
        return 0
    mask = 0
    for part in text.split("+"):
        part = part.strip()
        if part not in sig.preds:
            raise InputError(f"unknown label {part!r}")
        bit = 1 << sig.index(part)
        if mask & bit:
            raise InputError(f"repeated label {part!r}")
        mask |= bit
    return mask


@dataclass(frozen=True, slots=True, init=False)
class Word:
    sig: Signature
    letters: tuple[int, ...]

    def __init__(self, sig: Signature, letters=()):
        if type(letters) is not tuple:
            letters = tuple(letters)
        top = 1 << sig.k
        for mask in letters:
            if not 0 <= mask < top:
                raise InputError(f"letter mask {mask} out of range for signature")
        _set_sig(self, sig)
        _set_letters(self, letters)

    def __len__(self):
        return len(self.letters)

    def render(self) -> str:
        return "[" + ", ".join(render_letter(self.sig, m) for m in self.letters) + "]"

    def __str__(self):
        return self.render()

    def has(self, name: str, pos: int) -> bool:
        return bool(self.letters[pos] >> self.sig.index(name) & 1)

    @classmethod
    def parse(cls, text: str, sig: Signature) -> "Word":
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise InputError(f"bad word text {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return cls(sig, ())
        return cls(sig, tuple(_parse_letter(sig, part) for part in inner.split(",")))


@dataclass(frozen=True, slots=True, init=False)
class MarkedWord:
    word: Word
    marks: tuple[int, ...]

    def __init__(self, word: Word, marks=()):
        if type(marks) is not tuple:
            marks = tuple(marks)
        n, prev = len(word.letters), -1
        for p in marks:
            if not prev < p < n:
                if not 0 <= p < n:
                    raise InputError(f"mark {p} out of range")
                raise InputError("marks must be strictly ascending")
            prev = p
        _set_word(self, word)
        _set_marks(self, marks)

    def __len__(self):
        return len(self.word)

    def render(self) -> str:
        marked = set(self.marks)
        parts = []
        for i, m in enumerate(self.word.letters):
            s = render_letter(self.word.sig, m)
            if i in marked:
                s += "*"
            parts.append(s)
        return "[" + ", ".join(parts) + "]"

    def __str__(self):
        return self.render()

    @classmethod
    def parse(cls, text: str, sig: Signature) -> "MarkedWord":
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise InputError(f"bad word text {text!r}")
        inner = text[1:-1].strip()
        letters = []
        marks = []
        if inner:
            for i, part in enumerate(inner.split(",")):
                part = part.strip()
                if part.endswith("*"):
                    marks.append(i)
                    part = part[:-1]
                letters.append(_parse_letter(sig, part))
        return cls(Word(sig, tuple(letters)), tuple(marks))


# the slots' own setters: the frozen classes' __init__ stores through them,
# as the dataclass __init__ would through object.__setattr__
_set_sig, _set_letters = Word.sig.__set__, Word.letters.__set__
_set_word, _set_marks = MarkedWord.word.__set__, MarkedWord.marks.__set__


def all_words(sig: Signature, max_len: int):
    """Yield every word up to max_len in shortlex order."""
    base = 1 << sig.k
    for length in range(max_len + 1):
        for letters in itertools.product(range(base), repeat=length):
            yield Word(sig, letters)


def walk_length(sig: Signature, max_len: int) -> int:
    """The number of words all_words(sig, max_len) yields: 0 below length 0."""
    return sum((1 << sig.k) ** n for n in range(max_len + 1))
