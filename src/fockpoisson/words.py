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
expectation) iff each letter sits at or above its floor in _FLOOR (>= 1 for M
and A; A's is forced, but checked so that "admissible" and "nonzero
expectation" coincide letter by letter) and the final balance is zero.  The
letter check, a word's one walk, records its levels and admissibility.

Admissible words biject with non-crossing partitions: scalar letters are
singletons, creation letters open blocks, annihilation letters close the most
recently opened block, and intermediate letters join the innermost open block
(the only non-crossing choice).

A card is a kind and a level, the level before its position, held to the
letters' floor table, and weighs one monomial in sqrt(l), s and t.  Its kind
is its word letter, except that an intermediate card is N in the degenerate
t = 1 mode.  An arrangement weighs the monomial whose exponents sum its
cards': l^blocks * s^td1 * t^td2 (t^0 in the t = 1 mode).
"""

from __future__ import annotations

from collections import namedtuple

from .partitions import NCPartition
from .poly import MultiPoly

_CHI = {"C": 1, "A": -1, "M": 0, "K": 0}
# the lowest level a letter or card may sit at; N is a card kind, not a letter
_FLOOR = {"C": 0, "A": 1, "M": 1, "K": 0, "N": 1}


class NotAdmissibleError(ValueError):
    """The word has zero vacuum expectation."""


class OperatorWord:
    """An operator word; position 1 is the rightmost factor of the product."""

    __slots__ = ("letters", "_levels", "_admissible")

    def __init__(self, letters: str):
        if not isinstance(letters, str):
            raise TypeError(f"expected a str over C/A/M/K, got {letters!r}")
        levels, level, floors_met = [], 0, True
        for ch in letters:
            if ch not in _CHI:
                raise ValueError(f"invalid word letter {ch!r}")
            levels.append(level)
            floors_met = floors_met and level >= _FLOOR[ch]
            level += _CHI[ch]
        self.letters, self._levels = letters, tuple(levels)
        self._admissible = floors_met and level == 0

    @classmethod
    def parse(cls, text: str) -> "OperatorWord":
        """Parse a string over C/A/M/K, leftmost character = first-applied factor."""
        return cls(text.upper() if isinstance(text, str) else text)

    def __str__(self):
        return self.letters

    def __repr__(self):
        return f"OperatorWord({self.letters!r})"

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
        return list(self._levels)

    def is_admissible(self) -> bool:
        return self._admissible

    def to_partition(self) -> NCPartition:
        """The non-crossing partition whose element k carries this word's k-th letter."""
        if not self._admissible:
            raise NotAdmissibleError(f"word {self} is not admissible")
        blocks, open_stack = [], []
        for k, x in enumerate(self.letters, start=1):
            if x == "K":
                blocks.append((k,))
            elif x == "C":
                open_stack.append([k])
            elif x == "M":
                open_stack[-1].append(k)
            else:
                blocks.append((*open_stack.pop(), k))
        blocks.sort()  # appended as they closed; distinct minima, so by minimum
        return NCPartition._trusted(len(self.letters), tuple(blocks))

    @classmethod
    def from_partition(cls, p: NCPartition) -> "OperatorWord":
        """Inverse of to_partition: min -> C, max -> A, singleton -> K, rest -> M."""
        letters = ["M"] * p.n
        for b in p.blocks:
            if len(b) == 1:
                letters[b[0] - 1] = "K"
            else:
                letters[b[0] - 1] = "C"
                letters[b[-1] - 1] = "A"
        return cls("".join(letters))

    def arrangement(self, degenerate_t: bool = False) -> "CardArrangement":
        return arrangement(self, degenerate_t=degenerate_t)


class Card(namedtuple("Card", "kind level")):
    """One card: its kind, a letter of C/A/M/K or N (an intermediate card in
    the degenerate t = 1 mode), and its level, the level before its position."""

    __slots__ = ()

    @property
    def weight(self) -> MultiPoly:
        return MultiPoly({_CARD_EXPONENTS[self.kind](self.level): 1})

    def label(self) -> str:
        return f"{self.kind}{self.level}"


# kind -> (level -> (2*exp_l, exp_s, exp_t)), the key of one MultiPoly term
_CARD_EXPONENTS = {
    "C": lambda lv: (1, 0, 0),
    "A": lambda lv: (1, lv - 1, 0),
    "K": lambda lv: (2, lv, 0),
    "M": lambda lv: (0, 0, lv - 1),
    "N": lambda lv: (0, 0, 0),
}


class CardArrangement:
    """The card realization of an admissible word, one card per position."""

    __slots__ = ("cards",)

    def __init__(self, cards):
        cards = tuple(cards)
        for c in cards:
            if c.kind not in _FLOOR or type(c.level) is not int:
                raise ValueError(f"expected a C/A/M/K/N card at an int level, got {c!r}")
            if c.level < _FLOOR[c.kind]:
                raise ValueError(f"{c.kind}-card requires level >= {_FLOOR[c.kind]}")
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


def arrangement(w: OperatorWord, degenerate_t: bool = False) -> CardArrangement:
    """Cards for an admissible word; the card index is the incoming level."""
    if not w._admissible:
        raise NotAdmissibleError(f"word {w} is not admissible")
    kinds = w.letters.replace("M", "N") if degenerate_t else w.letters
    return CardArrangement(Card(x, lv) for x, lv in zip(kinds, w._levels))


_CELL = 5


def _card_cell(card: Card, h: int) -> str:
    """Width-5 picture of one card at height row h (h >= 1)."""
    kind, i = card.kind, card.level
    if kind == "C":
        if h == i + 1:
            return "  /--"  # line arriving from below (new line when i = 0)
        if h <= i:
            return "--/--"  # incoming line rises away; lower line arrives
    elif kind == "A":
        if h == i:
            return "--\\  "  # top incoming line falls away; nothing arrives
        if h < i:
            return "--\\--"  # incoming line falls away; line from above arrives
    elif kind == "K":
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
    heights = [c.level + 1 if c.kind == "C" else c.level for c in a.cards]
    top = max(heights)
    rows = []
    for h in range(top, 0, -1):
        cells = " ".join(_card_cell(c, h) for c in a.cards)
        rows.append(f"{h} | {cells}".rstrip())
    ground = " ".join(f"  {c.kind}  " for c in a.cards)
    rows.append(f"0 | {ground}".rstrip())
    labels = " ".join(f"{c.label():<{_CELL}}" for c in a.cards)
    rows.append(f"    {labels}".rstrip())
    return "\n".join(rows)
