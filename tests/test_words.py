import pytest
from fractions import Fraction

from fockpoisson import cli, words
from fockpoisson.partitions import NCPartition, enumerate_nc
from fockpoisson.poly import MultiPoly
from fockpoisson.words import (
    Card,
    CardArrangement,
    NotAdmissibleError,
    OperatorWord,
    arrangement,
    render_ascii,
)

from oracles import admissible_words_bruteforce, admissible_words_dfs

WORD_A = OperatorWord.parse("CMCKAA")
WORD_B = OperatorWord.parse("CCCAMAA")


def mono(el, es=0, et=0):
    return MultiPoly.term(1, el=el, es=es, et=et)


def test_parse_and_str_roundtrip():
    assert str(WORD_A) == "CMCKAA"
    assert WORD_A.letters[0] == "C"
    assert WORD_A.letters[3] == "K"
    with pytest.raises(ValueError):
        OperatorWord.parse("CXA")


def test_operator_word_takes_a_str():
    assert OperatorWord("CMA").letters == "CMA" and str(OperatorWord("")) == ""
    with pytest.raises(TypeError):
        OperatorWord(("C", "A"))  # str() of a tuple-held word would fail
    with pytest.raises(ValueError, match="invalid word letter 'X'"):
        OperatorWord("CXA")
    with pytest.raises(ValueError, match="invalid word letter 'c'"):
        OperatorWord("ca")  # only parse folds case
    assert OperatorWord.parse("cma") == OperatorWord("CMA")
    with pytest.raises(TypeError):
        OperatorWord.parse(5)  # refused by the constructor, not by str.upper


def test_levels_worked_examples():
    assert WORD_A.levels() == [0, 1, 1, 2, 2, 1]
    assert OperatorWord("").levels() == []
    assert WORD_B.levels() == [0, 1, 2, 3, 2, 2, 1]


def test_mutating_the_levels_list_leaves_the_word_unchanged():
    w = OperatorWord.parse("CMCKAA")
    levels = w.levels()
    levels[0] = 5
    levels.append(-1)
    assert w.levels() == [0, 1, 1, 2, 2, 1]
    assert w.is_admissible()
    assert w.arrangement().labels() == ["C0", "M1", "C1", "K2", "A2", "A1"]
    assert w.to_partition().blocks == ((1, 2, 6), (3, 5), (4,))


class _CountingSteps(dict):
    """words._CHI that counts its subscripts, one per letter read for a step."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_each_letter_is_read_once_per_word(monkeypatch, capsys):
    # levels, admissibility, partition, cards and drawing all come from the
    # one walk of the constructor's letter check
    steps = _CountingSteps(words._CHI)
    monkeypatch.setattr(words, "_CHI", steps)
    assert cli.main(["words", "--check", "CMCKAA", "--cards"]) == 0
    assert "levels: 0 1 1 2 2 1" in capsys.readouterr().out
    assert steps.lookups == 6


def test_admissibility():
    assert WORD_A.is_admissible()
    assert WORD_B.is_admissible()
    assert not OperatorWord.parse("M").is_admissible()
    assert not OperatorWord.parse("AC").is_admissible()
    assert not OperatorWord.parse("C").is_admissible()  # unbalanced
    assert OperatorWord("").is_admissible()
    assert OperatorWord.parse("K").is_admissible()


def test_word_to_partition_examples():
    assert WORD_A.to_partition().blocks == ((1, 2, 6), (3, 5), (4,))
    assert WORD_B.to_partition().blocks == ((1, 7), (2, 5, 6), (3, 4))
    assert OperatorWord.parse("CA").to_partition().blocks == ((1, 2),)
    with pytest.raises(NotAdmissibleError):
        OperatorWord.parse("AC").to_partition()


def test_partition_to_word_examples():
    assert OperatorWord.from_partition(NCPartition(6, [[1, 2, 6], [3, 5], [4]])) == WORD_A
    assert OperatorWord.from_partition(NCPartition(1, [[1]])) == OperatorWord.parse("K")
    assert OperatorWord.from_partition(NCPartition(2, [[1, 2]])) == OperatorWord.parse("CA")


def test_arrangement_worked_examples():
    arr = arrangement(WORD_A)
    assert arr.labels() == ["C0", "M1", "C1", "K2", "A2", "A1"]
    assert arr.total_weight == mono(3, es=3)

    arr_b = arrangement(WORD_B)
    assert arr_b.labels() == ["C0", "C1", "C2", "A3", "M2", "A2", "A1"]
    assert arr_b.total_weight == mono(3, es=3, et=1)

    degenerate = arrangement(WORD_B, degenerate_t=True)
    assert degenerate.labels() == ["C0", "C1", "C2", "A3", "N2", "A2", "A1"]
    assert degenerate.total_weight == mono(3, es=3)


def test_card_weights_table():
    half = Fraction(1, 2)
    assert Card("C", 0).weight == mono(half)
    assert arrangement(OperatorWord.parse("CA")).cards[1].weight == mono(half)
    assert arrangement(OperatorWord.parse("CCAA")).cards[2].weight == mono(half, es=1)
    assert arrangement(OperatorWord.parse("CKA")).cards[1].weight == mono(1, es=1)
    assert arrangement(OperatorWord.parse("CMA")).cards[1].weight == MultiPoly.one()
    assert arrangement(OperatorWord.parse("CCMAA")).cards[2].weight == mono(0, et=1)


def test_card_validation():
    with pytest.raises(ValueError):
        # annihilation cards require level >= 1
        CardArrangement([Card("A", 0)])
    with pytest.raises(ValueError):
        CardArrangement([Card("M", 0)])
    with pytest.raises(ValueError, match="N-card requires level >= 1"):
        CardArrangement([Card("N", 0)])
    # letters and cards share one floor table: a card must be of a known
    # kind, at an int level at or above its kind's floor
    for card in (Card("X", 0), Card("K", -1), Card("A", 1.0), Card("C", True), Card("C", -2)):
        with pytest.raises(ValueError):
            CardArrangement([Card("C", 0), card])
    with pytest.raises(NotAdmissibleError):
        arrangement(OperatorWord.parse("AC"))


GOLDEN_A = """\
2 |               /-- ----- --\\
1 |   /-- \\___/ --/-- ----- --\\-- --\\
0 |   C     M     C     K     A     A
    C0    M1    C1    K2    A2    A1"""


def test_render_golden():
    assert arrangement(WORD_A).render() == GOLDEN_A
    pair = arrangement(OperatorWord.parse("CA")).render()
    assert pair == "1 |   /-- --\\\n0 |   C     A\n    C0    A1"
    assert render_ascii(CardArrangement(())) == ""


def test_render_deterministic():
    arr = arrangement(WORD_B)
    assert arr.render() == arr.render()


def test_bijection_roundtrip_partition_side():
    for n in range(1, 11):
        for p in enumerate_nc(n):
            w = OperatorWord.from_partition(p)
            assert w.is_admissible()
            assert w.to_partition().blocks == p.blocks


def test_bijection_roundtrip_word_side():
    for n in range(1, 11):
        for text in admissible_words_dfs(n):
            w = OperatorWord.parse(text)
            assert w.is_admissible()
            p = w.to_partition()
            assert OperatorWord.from_partition(p) == w
            # built trusted, p must hold the tuples, ordered by their
            # minima, that the validating constructor makes of its blocks
            assert p == NCPartition(n, p.blocks)


def test_admissible_counts_match_catalan():
    for n in range(1, 11):
        count_nc = sum(1 for _ in enumerate_nc(n))
        assert len(admissible_words_dfs(n)) == count_nc


def test_dfs_enumerator_matches_bruteforce():
    for n in range(1, 8):
        assert sorted(admissible_words_dfs(n)) == sorted(admissible_words_bruteforce(n))
        for text in admissible_words_bruteforce(n):
            assert OperatorWord.parse(text).is_admissible()
        inadmissible = set("".join(w) for w in __import__("itertools").product("CAMK", repeat=n))
        inadmissible -= set(admissible_words_bruteforce(n))
        # every inadmissible word for n <= 6 (4**6 words), a sample beyond
        sample = inadmissible if n <= 6 else list(inadmissible)[:50]
        for text in sample:
            assert not OperatorWord.parse(text).is_admissible()


def test_weight_coherence_with_partition_statistics():
    from fockpoisson.moments import weight

    for n in range(1, 11):
        for text in admissible_words_dfs(n):
            w = OperatorWord.parse(text)
            total = w.arrangement().total_weight
            assert total == weight(w.to_partition())
            assert total.has_integral_lambda_exponents()


def test_total_weight_is_the_product_of_card_weights_in_both_modes():
    from fockpoisson.moments import weight

    for n in range(9):
        for text in admissible_words_dfs(n):
            w = OperatorWord.parse(text)
            expected = weight(w.to_partition())
            for degenerate_t, target in ((False, expected),
                                         (True, expected.specialize_one(t=True))):
                arr = w.arrangement(degenerate_t=degenerate_t)
                product = MultiPoly.one()
                for card in arr.cards:
                    product = product * card.weight
                assert arr.total_weight == product == target, (text, degenerate_t)
