import pickle
from dataclasses import FrozenInstanceError

import pytest

from chainrep.errors import InputError
from chainrep.formula import Signature
from chainrep.words import MarkedWord, Word, all_words, walk_length


def test_letter_masks(sig2):
    w = Word(sig2, (0, 1, 2, 3))
    assert w.has("P1", 1) and not w.has("P2", 1)
    assert w.has("P2", 2) and w.has("P1", 3)
    with pytest.raises(InputError):
        Word(sig2, (4,))


def test_render_parse_round_trip(sig2):
    w = Word(sig2, (0, 1, 3))
    assert Word.parse(w.render(), sig2) == w
    assert w.render() == "[., P1, P1+P2]"
    assert Word.parse("[]", sig2) == Word(sig2, ())


def test_marked_word_validation(sig1):
    w = Word(sig1, (0, 1, 0))
    MarkedWord(w, (0, 2))
    with pytest.raises(InputError):
        MarkedWord(w, (2, 0))  # not ascending
    with pytest.raises(InputError):
        MarkedWord(w, (1, 1))  # repeated
    with pytest.raises(InputError):
        MarkedWord(w, (3,))  # out of range


@pytest.mark.parametrize("marks, message", [
    ((2, 5), "mark 5 out of range"),
    ((1, -1), "mark -1 out of range"),
    ((2, 1), "marks must be strictly ascending"),
    ((1, 1), "marks must be strictly ascending"),
])
def test_marked_word_messages(sig1, marks, message):
    # a mark out of range is named before an order it breaks
    with pytest.raises(InputError, match=f"^{message}$"):
        MarkedWord(Word(sig1, (0, 1, 0)), marks)


@pytest.mark.parametrize("letters, message", [
    ((0, 4), "letter mask 4 out of range for signature"),
    ((-1,), "letter mask -1 out of range for signature"),
])
def test_word_messages(sig2, letters, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        Word(sig2, letters)


def test_words_are_frozen_slotted_values(sig2):
    w = Word(sig2, [0, 1, 3])
    mw = MarkedWord(w, [0, 2])
    assert w == Word(sig2, (0, 1, 3)) and hash(w) == hash(Word(sig2, (0, 1, 3)))
    assert mw == MarkedWord(w, (0, 2)) and hash(mw) == hash(MarkedWord(w, (0, 2)))
    assert repr(w) == "Word(sig=Signature(preds=('P1', 'P2')), letters=(0, 1, 3))"
    assert repr(mw) == f"MarkedWord(word={w!r}, marks=(0, 2))"
    assert Word(sig=sig2, letters=(1,)) == Word(sig2, (1,))
    assert MarkedWord(word=w, marks=(1,)) == MarkedWord(w, (1,))
    for obj, field in ((w, "sig"), (w, "letters"), (mw, "word"), (mw, "marks")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, ())
        # no other attribute can be added either; Python 3.11's slotted
        # frozen __setattr__ raises TypeError for a name that is no field
        with pytest.raises((FrozenInstanceError, TypeError)):
            setattr(obj, "extra", ())
        assert not hasattr(obj, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(mw, protocol)) == mw


def test_marks_and_letters_are_stored_as_tuples(sig1):
    mw = MarkedWord(Word(sig1, [0, 1, 0]), [0, 2])
    assert mw.marks == (0, 2) and mw.word.letters == (0, 1, 0)
    assert mw == MarkedWord(Word(sig1, (0, 1, 0)), (0, 2))


def test_marked_render(sig1):
    mw = MarkedWord(Word(sig1, (1, 0)), (1,))
    assert mw.render() == "[P1, .*]"
    assert MarkedWord.parse("[P1, .*]", sig1) == mw


@pytest.mark.parametrize("parse, text, message", [
    (Word.parse, "[P3]", "unknown label 'P3'"),
    (Word.parse, "[P1+P1]", "repeated label 'P1'"),
    (Word.parse, "P1", "bad word text 'P1'"),
    (MarkedWord.parse, "P1*", "bad word text 'P1*'"),
])
def test_parse_refusals_name_the_text(sig2, parse, text, message):
    with pytest.raises(InputError) as refused:
        parse(text, sig2)
    assert str(refused.value) == message


def test_all_words_counts(sig1, sig2):
    assert sum(1 for _ in all_words(sig1, 3)) == 1 + 2 + 4 + 8
    assert sum(1 for _ in all_words(sig2, 2)) == 1 + 4 + 16
    lens = [len(w) for w in all_words(sig1, 2)]
    assert lens == sorted(lens)  # shortlex: lengths ascend
    assert sum(1 for w in all_words(sig1, 2) if len(w) >= 1) == 6


@pytest.mark.parametrize("k", [0, 1, 2])
def test_walk_length_counts_all_words(k):
    sig = Signature(tuple(f"P{i}" for i in range(1, k + 1)))
    for max_len in range(-1, 6):
        assert walk_length(sig, max_len) == len(list(all_words(sig, max_len)))
