"""Potential sequences for the 1D tight-binding chain.

Families covered: almost-Mathieu cosine potentials, Sturmian and circle-map
two-valued sequences, primitive-substitution sequences, explicit periodic
lists, and constants. Samplers use the convention that a finite sample
occupies sites n = 1..L, so transfer products read values left to right.

Phase convention for the Sturmian kind: the circle map is evaluated at
(n+1)*alpha + omega, so that omega = 0 with the golden mean reproduces the
sequence 1,0,1,1,0,... (the image of the fixed point of a->ab, b->a under
f(a)=1, f(b)=0). The circle kind evaluates at n*alpha + omega.

Every fixed-point word (sampled window, approximant period or ``LevelWord``)
is spelled from level blocks rule^k(x) by one speller, ``_spell``, with
lengths from the rule's one exact table, ``SubstitutionRule.lengths``, grown
on the rule as far as a caller needs and kept there. ``fixed_point_window``
writes any window of a substitution fixed point, and any window of the
golden-mean Sturmian at any phase, as level blocks: at omega = 0 from site 1
or around site 0 without sampling, elsewhere as the first occurrence of the
sampled letters among the first 4(n+1) shifts of the Fibonacci fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

# The constants live in a numpy-free module, which the command line reads
# before numpy loads; they stay importable from here under the same names.
from .constants import GOLDEN_MEAN, MAX_FLOQUET_STEPS, MAX_SITES, MAX_SUBSTITUTION_LETTERS
from .errors import DomainError

# Continued-fraction expansion stops once the residual drops below this;
# smaller residuals are float noise and would produce garbage convergents.
_CF_RESIDUAL = 1e-12
_CF_MAX_TERMS = 64

# Largest substitution power tried when searching for a two-sided fixed point.
TWO_SIDED_POWER_CAP = 6


@dataclass(frozen=True)
class SubstitutionRule:
    """A substitution on a finite alphabet, letter_i -> word over the alphabet.

    Letters are single characters, so a word is a string and one rule
    application is one ``str.translate``."""

    alphabet: tuple[str, ...]
    images: dict[str, str]
    _table: dict = field(init=False, repr=False, compare=False)
    _lengths: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "images", dict(self.images))
        letters = set(self.alphabet)
        if len(letters) != len(self.alphabet):
            raise DomainError("alphabet letters must be distinct")
        if not all(isinstance(a, str) and len(a) == 1 for a in self.alphabet):
            raise DomainError("alphabet letters must be single characters")
        if set(self.images) != letters:
            raise DomainError("images must be given for exactly the alphabet")
        for a, w in self.images.items():
            if not w:
                raise DomainError(f"image of {a!r} is empty")
            if not set(w) <= letters:
                raise DomainError(f"image of {a!r} uses letters outside the alphabet")
        object.__setattr__(self, "_table", str.maketrans(self.images))

    def apply(self, word: str) -> str:
        return word.translate(self._table)

    def iterate(self, seed: str, n: int) -> str:
        w = seed
        for _ in range(n):
            w = self.apply(w)
        return w

    def lengths(self, k: int) -> list[dict[str, int]]:
        """The rule's one length table: |rule^j(y)| of every letter y as exact
        ints, one dict per level j = 0, 1, ..., through level k at least. It
        is grown here on first need and kept; a longer table replaces the
        kept list instead of extending it, so a reader never sees one half
        grown. DomainError if no image is longer than one letter, as the
        iterates then never grow."""
        table = self._lengths
        if len(table) > k:
            return table
        if all(len(w) == 1 for w in self.images.values()):
            raise DomainError("substitution does not grow from its seed")
        table = table[:] or [dict.fromkeys(self.alphabet, 1)]
        while len(table) <= k:
            level = table[-1]
            table.append({y: sum(level[z] for z in w) for y, w in self.images.items()})
        object.__setattr__(self, "_lengths", table)
        return table

    def power(self, n: int) -> "SubstitutionRule":
        """The rule whose images are the n-fold iterates of this rule."""
        return SubstitutionRule(
            self.alphabet, {a: self.iterate(a, n) for a in self.alphabet}
        )

    def matrix(self) -> np.ndarray:
        """Occurrence matrix M[i, j] = count of letter i in the image of letter j."""
        r = len(self.alphabet)
        m = np.zeros((r, r), dtype=np.int64)
        for j, a in enumerate(self.alphabet):
            for ch in self.images[a]:
                m[self.alphabet.index(ch), j] += 1
        return m

    def is_primitive(self) -> bool:
        """True if some power of the occurrence matrix is entrywise positive:
        then, by Wielandt's bound, every power from (r-1)^2 + 1 on is, so the
        pattern is squared until its exponent passes that bound."""
        r = len(self.alphabet)
        p, e = self.matrix() > 0, 1
        while e < (r - 1) ** 2 + 1:
            p = (p.astype(np.int64) @ p.astype(np.int64)) > 0
            e *= 2
        return bool(p.all())


FIBONACCI_RULE = SubstitutionRule(("a", "b"), {"a": "ab", "b": "a"})
THUE_MORSE_RULE = SubstitutionRule(("a", "b"), {"a": "ab", "b": "ba"})
PERIOD_DOUBLING_RULE = SubstitutionRule(("a", "b"), {"a": "ab", "b": "aa"})

NAMED_RULES = {
    "fibonacci": FIBONACCI_RULE,
    "thue-morse": THUE_MORSE_RULE,
    "period-doubling": PERIOD_DOUBLING_RULE,
}

_ALPHA_KINDS = ("almost-mathieu", "sturmian", "circle")
KINDS = _ALPHA_KINDS + ("substitution", "explicit-periodic", "constant")


@dataclass(frozen=True)
class LevelWord:
    """A chain segment written as whole level blocks rule^k(x) of a
    substitution with ``letter_values``, ``blocks`` = ((k, x), ...) left to
    right: the words whose transfer matrices ``transfer.iter_levels`` builds,
    joined by ``transfer.block_product``. ``sites`` is the segment's length,
    read from the rule's one length table (``SubstitutionRule.lengths``)."""

    rule: SubstitutionRule
    letter_values: dict[str, float]
    blocks: tuple[tuple[int, str], ...]
    sites: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lengths = self.rule.lengths(max(k for k, _ in self.blocks))
        object.__setattr__(self, "sites", sum(lengths[k][x] for k, x in self.blocks))


@dataclass(frozen=True)
class PeriodicPotential:
    """Values of one period, V_1..V_L.

    ``level_word``, where set, is a one-block ``LevelWord`` of which the period
    is a cyclic shift, so that both have the same Floquet spectrum; it takes
    no part in comparisons."""

    values: tuple[float, ...]
    level_word: LevelWord | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.values) < 1:
            raise DomainError("period must be at least 1")

    @property
    def period(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative description of a potential family.

    Only the fields relevant to ``kind`` are used; constructors below fill in
    the rest. ``rounding`` selects between the floor and ceiling variants of
    the Sturmian formula. For the circle kind, ``intervals`` is a tuple of
    half-open subintervals of [0, 1) (default: the single interval [0, alpha)).
    """

    kind: str
    alpha: float | None = None
    omega: float = 0.0
    lam: float = 1.0
    rule: SubstitutionRule | None = None
    letter_values: dict[str, float] | None = None
    values: tuple[float, ...] | None = None
    rounding: str = "floor"
    intervals: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.kind in _ALPHA_KINDS:
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise DomainError("alpha must lie strictly between 0 and 1")
            if self.lam == 0.0:
                raise DomainError("coupling lambda must be nonzero")
        if self.kind == "sturmian" and self.rounding not in ("floor", "ceil"):
            raise DomainError("rounding must be 'floor' or 'ceil'")
        if self.kind == "circle":
            ivals = self.intervals or ((0.0, self.alpha),)
            for lo, hi in ivals:
                if not (0.0 <= lo < hi <= 1.0):
                    raise DomainError("circle intervals must satisfy 0 <= lo < hi <= 1")
            object.__setattr__(self, "intervals", tuple(ivals))
        if self.kind == "substitution":
            if self.rule is None or self.letter_values is None:
                raise DomainError("substitution kind needs a rule and letter values")
            if set(self.letter_values) != set(self.rule.alphabet):
                raise DomainError("letter values must cover the alphabet")
            object.__setattr__(self, "letter_values", dict(self.letter_values))
        if self.kind == "explicit-periodic":
            if not self.values:
                raise DomainError("explicit periodic potential needs a nonempty value list")
        if self.kind == "constant" and self.values is None:
            object.__setattr__(self, "values", (0.0,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def almost_mathieu(cls, alpha, lam, omega=0.0):
        return cls(kind="almost-mathieu", alpha=alpha, lam=lam, omega=omega)

    @classmethod
    def sturmian(cls, alpha, lam, omega=0.0, rounding="floor"):
        return cls(kind="sturmian", alpha=alpha, lam=lam, omega=omega, rounding=rounding)

    @classmethod
    def circle(cls, alpha, lam, omega=0.0, intervals=None):
        return cls(kind="circle", alpha=alpha, lam=lam, omega=omega, intervals=intervals)

    @classmethod
    def substitution(cls, rule, letter_values):
        return cls(kind="substitution", rule=rule, letter_values=dict(letter_values))

    @classmethod
    def explicit(cls, values):
        return cls(kind="explicit-periodic", values=tuple(float(v) for v in values))

    @classmethod
    def constant(cls, value=0.0):
        return cls(kind="constant", values=(float(value),))

    def with_omega(self, omega: float) -> "PotentialSpec":
        return replace(self, omega=float(omega))


# -- substitution words ------------------------------------------------------


def _top(rule: SubstitutionRule, x: str, size: int, p: int = 1) -> int:
    """The least multiple k of ``p`` with |rule^k(x)| >= ``size``, for a
    primitive rule."""
    k = 0
    while rule.lengths(k)[k][x] < size:
        k += p
    return k


def _spell(rule: SubstitutionRule, blocks: tuple[tuple[int, str], ...]) -> str:
    """The one speller: the letters of the level blocks ((k, x), ...). Level
    by level from the letters up, rule^k(x) is joined from the level-(k-1)
    words of the letters of rule(x), for the words the blocks need only."""
    need = [set() for _ in range(max(k for k, _ in blocks) + 1)]
    for k, x in blocks:
        need[k].add(x)
    for k in range(len(need) - 1, 0, -1):
        for x in need[k]:
            need[k - 1].update(rule.images[x])
    words, level = dict.fromkeys(blocks), {}
    for k, letters in enumerate(need):
        level = {x: "".join(level[y] for y in rule.images[x]) if k else x for x in letters}
        words.update(((k, x), level[x]) for x in letters if (k, x) in words)
    return "".join(words[b] for b in blocks)


def generate_substitution_word(rule: SubstitutionRule, seed: str, min_length: int) -> str:
    """Prefix of the one-sided fixed point of ``rule`` starting from ``seed``.

    The image of ``seed`` must begin with ``seed`` (right prolongability), so
    the iterates converge to a fixed point; the first iterate of length at
    least ``min_length`` is returned.
    """
    if seed not in rule.alphabet:
        raise DomainError(f"seed {seed!r} not in alphabet")
    if not rule.images[seed].startswith(seed):
        raise DomainError(f"image of {seed!r} does not start with it; no fixed point")
    if not rule.is_primitive():
        raise DomainError("substitution rule is not primitive")
    return _spell(rule, ((_top(rule, seed, min_length), seed),))


def _two_sided_letters(rule: SubstitutionRule, power_cap: int) -> tuple[str, str, int]:
    """Smallest power n <= cap and lexicographically first (left, right) letters
    with rule^n(left) ending in left and rule^n(right) starting with right,
    the seeds of every fixed point here: rule^n(x) starts with f^n(x) and
    ends with l^n(x), f and l the first and last letters of the images, so
    nothing is spelled. DomainError unless primitive."""
    if not rule.is_primitive():
        raise DomainError("substitution rule is not primitive")
    letters = heads = tails = sorted(rule.alphabet)
    for n in range(1, power_cap + 1):
        heads = [rule.images[y][0] for y in heads]
        tails = [rule.images[y][-1] for y in tails]
        left = [x for x, y in zip(letters, tails) if x == y]
        right = [x for x, y in zip(letters, heads) if x == y]
        if left and right:
            return left[0], right[0], n
    raise DomainError(f"no two-sided fixed point found for powers up to {power_cap}")


def generate_two_sided(rule: SubstitutionRule, lo: int, hi: int) -> str:
    """Letters of a two-sided fixed-point sequence on the window lo..hi: a
    left fixed point on n <= 0 and a right one on n >= 1, grown from the
    seeds of ``_two_sided_letters``. Only the window's own blocks are
    spelled; DomainError if it has over MAX_SITES sites."""
    if hi < lo:
        return ""
    check_sites(hi - lo + 1)
    seeds = _two_sided_letters(rule, TWO_SIDED_POWER_CAP)
    return _spell(rule, fixed_point_blocks(rule, seeds, lo, hi))


def fixed_point_blocks(rule: SubstitutionRule, seeds: tuple[str, str, int], first: int,
                       last: int) -> tuple[tuple[int, str], ...]:
    """Sites first..last (first <= last) of the two-sided fixed point grown
    from ``seeds`` = (left letter, right letter, power p), as whole level
    blocks rule^k(x), left to right: sites n <= 0 end rule^(pK)(left letter)
    at site 0, sites n >= 1 start rule^(pK)(right letter) at site 1, each
    with the least K whose block holds its part of the window.

    One window split (``_window_blocks``) writes each part: a block the
    window covers whole is kept, and a block it cuts is split into the
    level-(k-1) blocks of the letters of its image, so at most two blocks
    split per level. A window from site 1 gives the Dumont-Thomas expansion
    of its length (Zeckendorf digits for Fibonacci). Block lengths are exact
    Python ints, read from the rule's one length table.
    """
    left, right, p = seeds
    blocks = []
    if first <= 0:
        k = _top(rule, left, 1 - first, p)
        size = rule.lengths(k)[k][left]
        blocks += _window_blocks(rule, k, left, size - 1 + first, size + min(last, 0))
    if last >= 1:
        blocks += _window_blocks(rule, _top(rule, right, last, p), right, max(first, 1) - 1,
                                 last)
    return tuple(blocks)


def _window_blocks(rule: SubstitutionRule, k: int, x: str, lo: int,
                   hi: int) -> list[tuple[int, str]]:
    """Letters lo..hi-1 of rule^k(x) as whole level blocks, left to right."""
    lengths = rule.lengths(k)
    blocks, todo = [], [(k, x, lo, hi)]
    while todo:  # a stack, not recursion: slow-growing rules have many levels
        k, x, lo, hi = todo.pop()
        if lo == 0 and hi == lengths[k][x]:
            blocks.append((k, x))
            continue
        parts, start = [], 0
        for y in rule.images[x]:
            end = start + lengths[k - 1][y]
            if lo < end and start < hi:
                parts.append((k - 1, y, max(lo - start, 0), min(hi, end) - start))
            start = end
        todo += reversed(parts)
    return blocks


def fixed_point_window(spec: PotentialSpec, first: int, last: int) -> LevelWord | None:
    """The ``LevelWord`` spelling what ``sample_potential`` samples on sites
    first..last, or None (always for an empty window). DomainError beyond
    MAX_SITES sites.

    A substitution gets its window of the two-sided fixed point grown from
    the seeds of ``_two_sided_letters``, unsampled. So does the golden-mean
    Sturmian at omega = 0 (mod 1) on a window from site 1 or holding site 0:
    the Fibonacci fixed point with a -> lam, b -> 0, grown by the square of
    the rule from the right letter a and the left letter b (floor) or a
    (ceil), pinned in the tests over MAX_SITES sites. On every other window
    and phase, the golden-mean Sturmian is a shifted factor window of the
    right fixed point (``_shifted_golden_window``), which costs O(n) to
    sample and find, against O(log n) for the level products."""
    if first > last:
        return None
    if spec.kind == "substitution":
        rule, letter_values = spec.rule, spec.letter_values
        seeds = _two_sided_letters(rule, TWO_SIDED_POWER_CAP)
    elif spec.kind == "sturmian" and spec.alpha == GOLDEN_MEAN:
        rule, letter_values = FIBONACCI_RULE, {"a": spec.lam, "b": 0.0}
        seeds = ("b" if spec.rounding == "floor" else "a", "a", 2)
        if not (math.fmod(spec.omega, 1.0) == 0.0 and first <= 1 and 0 <= last):
            return _shifted_golden_window(spec, first, last, seeds)
    else:
        return None
    check_sites(last - first + 1)
    return LevelWord(rule, letter_values, fixed_point_blocks(rule, seeds, first, last))


def _shifted_golden_window(spec: PotentialSpec, first: int, last: int,
                           seeds: tuple[str, str, int]) -> LevelWord | None:
    """The golden-mean Sturmian on sites first..last as a factor window of
    the right Fibonacci fixed point, whose language it has at every phase
    (Damanik-Killip-Lenz, CMP 2000): the first occurrence j+1..j+n of the
    sampled letters among its first 4(n+1) shifts, so its letters are the
    samples. None if the samples are not letters or do not occur there."""
    letters = _golden_letters(sample_potential(spec, first, last), spec.lam)
    n = last - first + 1
    text = generate_substitution_word(FIBONACCI_RULE, "a", 5 * n + 3)
    j = -1 if letters is None else text.find(letters, 0, 5 * n + 3)  # so j < 4(n+1)
    if j < 0:
        return None
    return LevelWord(FIBONACCI_RULE, {"a": spec.lam, "b": 0.0},
                     fixed_point_blocks(FIBONACCI_RULE, seeds, j + 1, j + n))


def _golden_letters(values: np.ndarray, lam: float) -> str | None:
    """Golden-mean Sturmian samples as Fibonacci letters, a for lam and b
    for 0, or None if a sample is neither."""
    a, b = values == lam, values == 0.0
    if not np.all(a | b):
        return None
    return np.where(a, ord("a"), ord("b")).astype(np.uint8).tobytes().decode()


# -- sampling ----------------------------------------------------------------


def _circle_indicator(x: np.ndarray, intervals) -> np.ndarray:
    frac = np.mod(x, 1.0)
    hit = np.zeros_like(frac, dtype=bool)
    for lo, hi in intervals:
        hit |= (frac >= lo) & (frac < hi)
    return hit.astype(float)


def check_sites(n: int) -> None:
    if n > MAX_SITES:
        raise DomainError(f"{n} sites exceed the budget of {MAX_SITES}")


def sample_potential(spec: PotentialSpec, first: int, last: int) -> np.ndarray:
    """Values V_n for n = first..last inclusive."""
    if first > last:
        raise DomainError("empty sampling range: first > last")
    check_sites(last - first + 1)
    n = np.arange(first, last + 1, dtype=float)
    # The phase is reduced mod 1 exactly (``fmod``), which leaves any |omega| < 1 as it is.
    omega = math.fmod(spec.omega, 1.0)
    if spec.kind == "almost-mathieu":
        return spec.lam * np.cos(2.0 * math.pi * (n * spec.alpha + omega))
    if spec.kind == "sturmian":
        rnd = np.floor if spec.rounding == "floor" else np.ceil
        hi = rnd((n + 1.0) * spec.alpha + omega)
        lo = rnd(n * spec.alpha + omega)
        return spec.lam * (hi - lo)
    if spec.kind == "circle":
        return spec.lam * _circle_indicator(n * spec.alpha + omega, spec.intervals)
    if spec.kind == "substitution":
        return _letter_values(generate_two_sided(spec.rule, first, last), spec.letter_values)
    if spec.kind == "explicit-periodic":
        vals = np.asarray(spec.values, dtype=float)
        idx = np.mod(np.arange(first, last + 1) - 1, len(vals))
        return vals[idx]
    # constant
    return np.full(last - first + 1, float(spec.values[0]))


def _letter_values(word: str, letter_values: dict[str, float]) -> np.ndarray:
    """The value of every letter of ``word``, looked up through its code point."""
    letters = sorted(letter_values)
    codes = np.frombuffer(word.encode("utf-32-le"), dtype=np.uint32)
    keys = np.array([ord(ch) for ch in letters], dtype=np.uint32)
    values = np.array([letter_values[ch] for ch in letters], dtype=float)
    return values[np.searchsorted(keys, codes)]


# -- rational approximation --------------------------------------------------


def _cf_convergents(alpha: float) -> list[tuple[int, int]]:
    """All continued-fraction convergents of alpha in (0,1) resolvable in floats."""
    out = [(0, 1)]
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    frac = alpha
    for _ in range(_CF_MAX_TERMS):
        if frac < _CF_RESIDUAL:
            break
        y = 1.0 / frac
        a = int(math.floor(y))
        frac = y - a
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        out.append((p_cur, q_cur))
    return out


def convergents(alpha: float, q_max: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of alpha with q <= q_max, increasing q."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie strictly between 0 and 1")
    if q_max < 1:
        raise DomainError("q_max must be at least 1")
    return [(p, q) for p, q in _cf_convergents(alpha) if q <= q_max]


def cosine_period(lam: float, p: int, q: int, omega: float) -> tuple[float, ...]:
    """One period V_n = lam cos(2 pi (n p/q + omega)), n = 1..q, of the cosine
    chain at alpha = p/q, with omega reduced mod 1 (exactly, by ``fmod``)."""
    omega = math.fmod(omega, 1.0)
    return tuple(lam * math.cos(2.0 * math.pi * (n * p / q + omega)) for n in range(1, q + 1))


def _rational_values(spec: PotentialSpec, p: int, q: int) -> tuple[float, ...]:
    """One period of the potential re-evaluated at alpha = p/q (exact
    arithmetic for the floor and ceiling formulas)."""
    omega = Fraction(spec.omega)  # floats convert exactly
    if spec.kind == "almost-mathieu":
        return cosine_period(spec.lam, p, q, spec.omega)
    if spec.kind == "sturmian":
        def rnd(x: Fraction) -> int:
            return math.floor(x) if spec.rounding == "floor" else math.ceil(x)

        return tuple(
            float(spec.lam * (rnd(Fraction((n + 1) * p, q) + omega) - rnd(Fraction(n * p, q) + omega)))
            for n in range(1, q + 1)
        )
    # circle
    vals = []
    for n in range(1, q + 1):
        x = Fraction(n * p, q) + omega
        frac = x - math.floor(x)
        hit = any(lo <= frac < hi for lo, hi in spec.intervals)
        vals.append(spec.lam if hit else 0.0)
    return tuple(vals)


def periodic_approximant(spec: PotentialSpec, order: int) -> PeriodicPotential:
    """Periodic approximant of the potential.

    For the alpha-based kinds, order k selects the k-th continued-fraction
    convergent of alpha (counting from 1 and skipping the trivial 0/1) and
    re-evaluates the formula over one period q. For the substitution kind the
    period is the level-k block rule^k(x) of the sampled fixed point's seed x
    (``_two_sided_letters``), whose matrix ``transfer.iter_levels`` builds at
    level k, recorded as its ``level_word`` (so is a golden-mean Sturmian period, see
    ``_convergent_period``); DomainError if the k rule applications write over
    MAX_SUBSTITUTION_LETTERS.
    """
    if order < 1:
        raise DomainError("order must be at least 1")
    if spec.kind == "constant":
        return PeriodicPotential((float(spec.values[0]),))
    if spec.kind == "explicit-periodic":
        return PeriodicPotential(tuple(float(v) for v in spec.values))
    if spec.kind == "substitution":
        _, x, _ = _two_sided_letters(spec.rule, TWO_SIDED_POWER_CAP)
        # Application k writes level k, at least one letter, so the running
        # sum passes the budget by level MAX_SUBSTITUTION_LETTERS + 1; the
        # table is grown one level at a time and no further than that.
        written = 0
        for k in range(1, order + 1):
            written += spec.rule.lengths(k)[k][x]
            if written > MAX_SUBSTITUTION_LETTERS:
                raise DomainError(f"order {order} writes more than "
                                  f"{MAX_SUBSTITUTION_LETTERS} letters")
        word = LevelWord(spec.rule, spec.letter_values, ((order, x),))
        letters = _spell(word.rule, word.blocks)
        return PeriodicPotential(tuple(_letter_values(letters, spec.letter_values).tolist()), word)
    convs = _cf_convergents(spec.alpha)[1:]  # skip 0/1
    if order > len(convs):
        raise DomainError(
            f"order {order} exceeds the {len(convs)} available convergents")
    return _convergent_period(spec, *convs[order - 1])


def approximant_by_denominator(spec: PotentialSpec, q_max: int) -> PeriodicPotential:
    """Approximant at the convergent with the largest denominator <= q_max."""
    if spec.kind not in _ALPHA_KINDS:
        raise DomainError(f"a {spec.kind} potential has no continued-fraction convergents")
    convs = [c for c in _cf_convergents(spec.alpha)[1:] if c[1] <= q_max]
    if not convs:
        raise DomainError(f"no convergent with denominator <= {q_max}")
    return _convergent_period(spec, *convs[-1])


def _convergent_period(spec: PotentialSpec, p: int, q: int) -> PeriodicPotential:
    """The period of ``_rational_values`` at the convergent p/q. For the
    golden-mean Sturmian it is a cyclic shift of the Fibonacci level block
    rule^k(a) with a -> lam, b -> 0 of the same length (F_(k+2) = q): a search
    of that word doubled confirms it, and the block is recorded."""
    check_sites(q)
    values = _rational_values(spec, p, q)
    word = None
    if spec.kind == "sturmian" and spec.alpha == GOLDEN_MEAN:
        word = LevelWord(FIBONACCI_RULE, {"a": spec.lam, "b": 0.0},
                         ((_top(FIBONACCI_RULE, "a", q), "a"),))
        block = _spell(word.rule, word.blocks)
        letters = _golden_letters(np.array(values), spec.lam)
        if not (word.sites == q and letters and letters in block + block):
            word = None
    return PeriodicPotential(values, word)


# -- letter statistics ---------------------------------------------------------


def letter_frequencies(rule: SubstitutionRule) -> dict[str, float]:
    """Asymptotic letter frequencies of the fixed point: the normalized
    Perron-Frobenius eigenvector of the occurrence matrix."""
    if not rule.is_primitive():
        raise DomainError("substitution rule is not primitive")
    m = rule.matrix().astype(float)
    eigvals, eigvecs = np.linalg.eig(m)
    k = int(np.argmax(np.abs(eigvals)))
    v = np.abs(np.real(eigvecs[:, k]))
    v = v / v.sum()
    return {a: float(v[i]) for i, a in enumerate(rule.alphabet)}
