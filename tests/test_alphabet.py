import pytest
from hypothesis import given
from hypothesis import strategies as st

from cftree import AlphabetError, InvolutiveAlphabet, UnknownLetterError, involutive_closure, merge_alphabets

base_letter = st.text(alphabet="abcxyz01", min_size=1, max_size=3)


def test_closure_single_letter():
    al = involutive_closure(["a"])
    assert al.letters == {"a", "a^-1"}
    assert al.inv("a") == "a^-1"
    assert al.inv("a^-1") == "a"
    with pytest.raises(UnknownLetterError, match="'b' is not in the alphabet"):
        al.inv("b")


def test_closure_binary_alphabet():
    al = involutive_closure(["0", "1"])
    assert al.letters == {"0", "1", "0^-1", "1^-1"}


def test_closure_two_letters_size():
    al = involutive_closure(["a", "b"])
    assert len(al) == 4


def test_closure_rejects_already_paired_set():
    al = involutive_closure(["a"])
    with pytest.raises(AlphabetError):
        involutive_closure(al.letters)


def test_closure_rejects_duplicates_and_empty():
    with pytest.raises(AlphabetError):
        involutive_closure(["a", "a"])
    with pytest.raises(AlphabetError):
        involutive_closure([])


@given(st.sets(base_letter, min_size=1, max_size=6))
def test_closure_involution_is_identity(base):
    al = involutive_closure(sorted(base))
    for a in al.letters:
        assert al.inv(al.inv(a)) == a


def test_self_inverse_letter_is_representable():
    al = InvolutiveAlphabet({"c"}, {"c": "c"})
    assert al.inv("c") == "c"


def test_alphabet_rejects_broken_involution():
    with pytest.raises(AlphabetError):
        InvolutiveAlphabet({"a", "b"}, {"a": "b", "b": "b"})
    with pytest.raises(AlphabetError):
        InvolutiveAlphabet({"a"}, {})
    with pytest.raises(AlphabetError, match="must not be empty"):
        InvolutiveAlphabet(set(), {})
    with pytest.raises(AlphabetError, match=r"mentions unknown letters: \['b'\]"):
        InvolutiveAlphabet({"a"}, {"a": "a", "b": "b"})


def test_merge_idempotent():
    x = involutive_closure(["a"])
    assert merge_alphabets(x, x) is x
    # Two equal alphabets built apart merge to the first one itself.
    y = involutive_closure(["a"])
    assert y is not x and merge_alphabets(x, y) is x and merge_alphabets(y, x) is y


def test_merge_disjoint_union():
    x = involutive_closure(["a"])
    y = involutive_closure(["b"])
    merged = merge_alphabets(x, y)
    assert merged.letters == {"a", "a^-1", "b", "b^-1"}
    assert merged.inv("b") == "b^-1"
    # A larger alphabet and one of its parts merge to a new alphabet equal
    # to the larger one.
    for big, part in ((merged, x), (merged, y)):
        for first, second in ((big, part), (part, big)):
            union = merge_alphabets(first, second)
            assert union == big and union is not big and union is not part


def test_merge_conflict_detected():
    x = involutive_closure(["a"])
    y = InvolutiveAlphabet({"a"}, {"a": "a"})
    with pytest.raises(AlphabetError):
        merge_alphabets(x, y)
