"""Formal words and polynomials in the generators q, q^-1, e, f.

This layer is purely symbolic: words are never reduced, so distinct words
are independent basis vectors of a free *-algebra.  Its job is to carry the
structural operations that are defined letterwise (comultiplication,
counit, antipode, star) and to feed the evaluation maps of the
representation layer, where the defining relations actually get checked.

The comultiplication acts on letters as

    D(q)    = q (x) q          D(e) = q (x) e + e (x) q^-1
    D(q^-1) = q^-1 (x) q^-1    D(f) = q (x) f + f (x) q^-1

and extends multiplicatively; the counit sends q, q^-1 to 1 and e, f to 0;
the antipode is the antihomomorphism with S(q) = q^-1, S(e) = -lam^-1 e,
S(f) = -lam f; the star is the antilinear antihomomorphism with e* = f,
f* = e and q, q^-1 self-adjoint.

Polynomials (``AlgPoly``, keyed by words) and tensors (``TensorPoly``,
keyed by tuples of words, one per leg) share the storage base
``WordSum``: a dict of exact-zero-pruned complex coefficients whose
product and star differ only in how keys are joined and starred.

The coproduct of each word is folded once per process and kept in a
module-level ``lru_cache``.  A cached polynomial is only read inside this
module; every public function returns a fresh object its caller may edit.
"""

from enum import Enum
from functools import lru_cache
from operator import add

from .util import worst


class Gen(Enum):
    """Generator letters."""

    Q = "q"
    QINV = "q^-1"
    E = "e"
    F = "f"

    # members are singletons compared by identity, so the identity hash is
    # consistent with equality and, unlike Enum's hash of the name, runs in C
    __hash__ = object.__hash__

    def __repr__(self):
        return self.value


#: A word is a tuple of letters; the empty tuple is the unit word.
Word = tuple

_STAR_LETTER = {Gen.Q: Gen.Q, Gen.QINV: Gen.QINV, Gen.E: Gen.F, Gen.F: Gen.E}


def word_str(word) -> str:
    return " ".join(g.value for g in word) if word else "1"


def _star_word(word) -> Word:
    """Reverse a word and swap e and f; the star on one word."""
    return tuple(_STAR_LETTER[g] for g in reversed(word))


class WordSum:
    """Finite complex combination of word keys.

    Supports +, -, scalar multiplication, the product (keys joined by the
    subclass's ``_join``) and the antilinear star (keys mapped by the
    subclass's ``_star_key``).  Coefficients that come out exactly zero are
    pruned, so ``terms`` only holds genuine support.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                coeff = complex(coeff)
                if coeff != 0:
                    self.terms[self._key(key)] = coeff

    @classmethod
    def _wrap(cls, terms):
        """An instance taking ownership of ``terms``, whose keys are already
        normalised and whose values are complex; exact zeros are pruned in
        place, so surviving keys are not hashed again."""
        for key in [key for key, coeff in terms.items() if coeff == 0]:
            del terms[key]
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def __add__(self, other):
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0.0) + coeff
        return self._wrap(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, type(self)):
            join = self._join
            out = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key = join(k1, k2)
                    out[key] = out.get(key, 0.0) + c1 * c2
            return self._wrap(out)
        scalar = complex(other)
        return self._wrap({key: scalar * coeff for key, coeff in self.terms.items()})

    def __rmul__(self, scalar):
        return self * scalar

    def star(self):
        """Antilinear, antimultiplicative on each key through ``_star_key``."""
        star_key = self._star_key
        out = {}
        for key, coeff in self.terms.items():
            new = star_key(key)
            out[new] = out.get(new, 0.0) + coeff.conjugate()
        return self._wrap(out)

    def max_abs_coeff(self) -> float:
        return worst(abs(c) for c in self.terms.values())

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return f"{name}(0)"
        ordered = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), str(kv[0])))
        bits = [f"({c:g})*{self._key_str(k)}" for k, c in ordered]
        return f"{name}(" + " + ".join(bits) + ")"


class AlgPoly(WordSum):
    """Finite complex combination of words, multiplied by concatenation."""

    __slots__ = ()

    _key = staticmethod(tuple)
    _star_key = staticmethod(_star_word)
    _key_str = staticmethod(word_str)

    @staticmethod
    def _join(w1, w2):
        return w1 + w2

    @classmethod
    def from_word(cls, *letters):
        return cls({tuple(letters): 1.0})


class TensorPoly(WordSum):
    """Finite complex combination of tensors word (x) ... (x) word with a
    fixed number of legs; products and the star act legwise, so
    (v (x) w)* = v* (x) w*."""

    __slots__ = ()

    @staticmethod
    def _key(key):
        return tuple(map(tuple, key))

    @staticmethod
    def _join(k1, k2):
        return tuple(map(add, k1, k2))

    @staticmethod
    def _star_key(key):
        return tuple(map(_star_word, key))

    @staticmethod
    def _key_str(key):
        return " (x) ".join(map(word_str, key))


#: Convenience basis polynomials.
ONE = AlgPoly({(): 1.0})
Q = AlgPoly.from_word(Gen.Q)
QINV = AlgPoly.from_word(Gen.QINV)
E = AlgPoly.from_word(Gen.E)
F = AlgPoly.from_word(Gen.F)

_COPRODUCT_LETTER = {
    Gen.Q: TensorPoly({((Gen.Q,), (Gen.Q,)): 1.0}),
    Gen.QINV: TensorPoly({((Gen.QINV,), (Gen.QINV,)): 1.0}),
    Gen.E: TensorPoly({((Gen.Q,), (Gen.E,)): 1.0, ((Gen.E,), (Gen.QINV,)): 1.0}),
    Gen.F: TensorPoly({((Gen.Q,), (Gen.F,)): 1.0, ((Gen.F,), (Gen.QINV,)): 1.0}),
}

_COUNIT_LETTER = {Gen.Q: 1.0, Gen.QINV: 1.0, Gen.E: 0.0, Gen.F: 0.0}


@lru_cache(maxsize=None)
def _word_coproduct(word) -> TensorPoly:
    """D(word) with unit coefficient, the left fold D(w[:-1]) D(last letter)
    over memoized prefixes.  Shared by every caller, so never handed out:
    its terms are only read."""
    if not word:
        return TensorPoly({((), ()): 1.0})
    return _word_coproduct(word[:-1]) * _COPRODUCT_LETTER[word[-1]]


def formal_coproduct(x: AlgPoly) -> TensorPoly:
    """Letterwise comultiplication, extended multiplicatively to words;
    a fresh `TensorPoly`, which the caller owns."""
    out = {}
    for word, coeff in x.terms.items():
        for key, c in _word_coproduct(word).terms.items():
            out[key] = out.get(key, 0.0) + coeff * c
    return TensorPoly._wrap(out)


def formal_counit(x: AlgPoly) -> complex:
    """Multiplicative counit; kills every word containing e or f."""
    total = 0.0
    for word, coeff in x.terms.items():
        value = coeff
        for g in word:
            value *= _COUNIT_LETTER[g]
        total += value
    return complex(total)


def formal_antipode(x: AlgPoly, lam: float) -> AlgPoly:
    """Antihomomorphism with S(q) = q^-1, S(e) = -e/lam, S(f) = -lam f."""
    letter = {Gen.Q: ((Gen.QINV,), 1.0), Gen.QINV: ((Gen.Q,), 1.0),
              Gen.E: ((Gen.E,), -1.0 / lam), Gen.F: ((Gen.F,), -lam)}
    out = {}
    for word, coeff in x.terms.items():
        new_word = ()
        value = coeff
        for g in reversed(word):
            w, scale = letter[g]
            new_word = new_word + w
            value *= scale
        out[new_word] = out.get(new_word, 0.0) + value
    return AlgPoly(out)


def coproduct_leg(tp: TensorPoly, leg: int) -> TensorPoly:
    """Apply the comultiplication to one leg of a two-leg tensor.

    Returns a fresh three-leg `TensorPoly`; used to state coassociativity,
    which lives in the triple tensor product.
    """
    if leg not in (0, 1):
        raise ValueError("leg must be 0 or 1")
    out = {}
    for (w1, w2), coeff in tp.terms.items():
        for (a, b), c in _word_coproduct(w1 if leg == 0 else w2).terms.items():
            key = (a, b, w2) if leg == 0 else (w1, a, b)
            out[key] = out.get(key, 0.0) + coeff * c
    return TensorPoly._wrap(out)
