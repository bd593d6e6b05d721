"""Operator words, admissibility, the non-crossing bijection, and card weights.

A word is a sequence of letters over {C, A, M, K} standing for the four
building blocks of the deformed Poisson operator: creation (sqrt(l)*a+),
annihilation (sqrt(l)*a), intermediate (m_t) and scalar (l*k_s).

ORIENTATION: position k of a word (1-based; index 0 of the string) is the
k-th factor counted from the RIGHT of the operator product, i.e. the factor
applied first to the vacuum.  Word strings therefore read left-to-right in
order of application, which is the reverse of the conventional right-to-left
notation for operator products.

The level before position k is the running sum of +1 per creation and -1 per
annihilation among positions < k.  A word is admissible (has nonzero vacuum
expectation) iff levels stay >= 0, every intermediate or annihilation letter
sits at level >= 1, and the final balance is zero.  Note the annihilation
constraint is already forced by the other two; it is checked explicitly so
that "admissible" and "nonzero expectation" coincide letter by letter.

Admissible words biject with non-crossing partitions: scalar letters are
singletons, creation letters open blocks, annihilation letters close the most
recently opened block, and intermediate letters join the innermost open block
(the only non-crossing choice).

A card is a kind and a level, the level before its position, and weighs one
monomial in sqrt(l), s and t.  An arrangement weighs the monomial whose
exponents sum its cards': l^blocks * s^td1 * t^td2 (t^0 in the t = 1 mode).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .partitions import NCPartition
from .poly import MultiPoly


class Letter(Enum):
    CRE = "C"
    ANN = "A"
    MID = "M"
    SCA = "K"


_CHI = {Letter.CRE: 1, Letter.ANN: -1, Letter.MID: 0, Letter.SCA: 0}
# the lowest level a letter may sit at in an admissible word
_FLOOR = {Letter.CRE: 0, Letter.ANN: 1, Letter.MID: 1, Letter.SCA: 0}
_BY_CHAR = {letter.value: letter for letter in Letter}


class NotAdmissibleError(ValueError):
    """The word has zero vacuum expectation."""


class OperatorWord:
    """An operator word; position 1 is the rightmost factor of the product."""

    __slots__ = ("letters",)

    def __init__(self, letters):
        letters = tuple(letters)
        for x in letters:
            if not isinstance(x, Letter):
                raise TypeError(f"expected Letter, got {x!r}")
        self.letters = letters

    @classmethod
    def parse(cls, text: str) -> "OperatorWord":
        """Parse a string over C/A/M/K, leftmost character = first-applied factor."""
        try:
            return cls(_BY_CHAR[ch] for ch in text.upper())
        except KeyError as exc:
            raise ValueError(f"invalid word letter {exc.args[0]!r}") from None

    def __str__(self):
        return "".join(x.value for x in self.letters)

    def __repr__(self):
        return f"OperatorWord({str(self)!r})"

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, OperatorWord):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def levels(self):
        """Level before each position: l(1) = 0, l(k+1) = l(k) + step(k)."""
        out = []
        level = 0
        for x in self.letters:
            out.append(level)
            level += _CHI[x]
        return out

    def is_admissible(self) -> bool:
        levels = self.levels()
        return not levels or (levels[-1] + _CHI[self.letters[-1]] == 0
                              and all(lv >= _FLOOR[x] for x, lv in zip(self.letters, levels)))

    def to_partition(self) -> NCPartition:
        """The non-crossing partition whose element k carries this word's k-th letter."""
        if not self.is_admissible():
            raise NotAdmissibleError(f"word {self} is not admissible")
        blocks = []
        open_stack = []
        for k, x in enumerate(self.letters, start=1):
            if x is Letter.SCA:
                blocks.append([k])
            elif x is Letter.CRE:
                open_stack.append([k])
            elif x is Letter.MID:
                open_stack[-1].append(k)
            else:
                b = open_stack.pop()
                b.append(k)
                blocks.append(b)
        return NCPartition(len(self.letters), blocks)

    @classmethod
    def from_partition(cls, p: NCPartition) -> "OperatorWord":
        """Inverse of to_partition: min -> C, max -> A, singleton -> K, rest -> M."""
        letters = [None] * p.n
        for b in p.blocks:
            if len(b) == 1:
                letters[b[0] - 1] = Letter.SCA
            else:
                letters[b[0] - 1] = Letter.CRE
                letters[b[-1] - 1] = Letter.ANN
                for k in b[1:-1]:
                    letters[k - 1] = Letter.MID
        return cls(letters)

    def arrangement(self, degenerate_t: bool = False) -> "CardArrangement":
        return arrangement(self, degenerate_t=degenerate_t)


class CardKind(Enum):
    C = "C"
    A = "A"
    K = "K"
    M = "M"
    N = "N"  # intermediate card in the degenerate t = 1 mode


class Card(namedtuple("Card", "kind level")):
    __slots__ = ()

    @property
    def weight(self) -> MultiPoly:
        return MultiPoly({_CARD_EXPONENTS[self.kind](self.level): 1})

    def label(self) -> str:
        return f"{self.kind.value}{self.level}"


# kind -> (level -> (2*exp_l, exp_s, exp_t)), the key of one MultiPoly term
_CARD_EXPONENTS = {
    CardKind.C: lambda lv: (1, 0, 0),
    CardKind.A: lambda lv: (1, lv - 1, 0),
    CardKind.K: lambda lv: (2, lv, 0),
    CardKind.M: lambda lv: (0, 0, lv - 1),
    CardKind.N: lambda lv: (0, 0, 0),
}


class CardArrangement:
    """The card realization of an admissible word, one card per position."""

    __slots__ = ("cards",)

    def __init__(self, cards):
        cards = tuple(cards)
        for c in cards:
            if c.kind in (CardKind.A, CardKind.M, CardKind.N) and c.level < 1:
                raise ValueError(f"{c.kind.value}-card requires level >= 1")
        self.cards = cards

    @property
    def total_weight(self) -> MultiPoly:
        """The product of the cards' weights: one term, exponents summed."""
        exponents = (_CARD_EXPONENTS[c.kind](c.level) for c in self.cards)
        return MultiPoly({tuple(map(sum, zip((0, 0, 0), *exponents))): 1})

    def labels(self):
        return [c.label() for c in self.cards]

    def render(self) -> str:
        return render_ascii(self)


_LETTER_TO_KIND = {
    Letter.CRE: CardKind.C,
    Letter.ANN: CardKind.A,
    Letter.SCA: CardKind.K,
    Letter.MID: CardKind.M,
}
_LETTER_TO_KIND_T1 = {**_LETTER_TO_KIND, Letter.MID: CardKind.N}  # degenerate t = 1


def arrangement(w: OperatorWord, degenerate_t: bool = False) -> CardArrangement:
    """Cards for an admissible word; the card index is the incoming level."""
    if not w.is_admissible():
        raise NotAdmissibleError(f"word {w} is not admissible")
    kinds = _LETTER_TO_KIND_T1 if degenerate_t else _LETTER_TO_KIND
    return CardArrangement(Card(kinds[x], lv) for x, lv in zip(w.letters, w.levels()))


_CELL = 5


def _card_cell(card: Card, h: int) -> str:
    """Width-5 picture of one card at height row h (h >= 1)."""
    kind, i = card.kind, card.level
    if kind is CardKind.C:
        if h == i + 1:
            return "  /--"  # line arriving from below (new line when i = 0)
        if h <= i:
            return "--/--"  # incoming line rises away; lower line arrives
    elif kind is CardKind.A:
        if h == i:
            return "--\\  "  # top incoming line falls away; nothing arrives
        if h < i:
            return "--\\--"  # incoming line falls away; line from above arrives
    elif kind is CardKind.K:
        if h <= i:
            return "-----"
    else:  # M or N
        if h == 1:
            return "\\___/"
        if h <= i:
            return "-----"
    return " " * _CELL


def render_ascii(a: CardArrangement) -> str:
    """Deterministic fixed-width drawing: columns are cards, rows are levels.

    Pass-through lines are dashes, rising/falling lines are slashes, the
    intermediate dip is \\___/, and the ground row marks each card's kind.
    """
    if not a.cards:
        return ""
    heights = [c.level + 1 if c.kind is CardKind.C else c.level for c in a.cards]
    top = max(heights)
    rows = []
    for h in range(top, 0, -1):
        cells = " ".join(_card_cell(c, h) for c in a.cards)
        rows.append(f"{h} | {cells}".rstrip())
    ground = " ".join(f"  {c.kind.value}  " for c in a.cards)
    rows.append(f"0 | {ground}".rstrip())
    labels = " ".join(f"{c.label():<{_CELL}}" for c in a.cards)
    rows.append(f"    {labels}".rstrip())
    return "\n".join(rows)
