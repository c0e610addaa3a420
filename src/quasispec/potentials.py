"""Potential sequences for the 1D tight-binding chain.

Families covered: almost-Mathieu cosine potentials, Sturmian and circle-map
two-valued sequences, primitive-substitution sequences, explicit periodic
lists, and constants. Samplers use the convention that a finite sample
occupies sites n = 1..L, so transfer products read values left to right.

Phase convention for the Sturmian kind: the circle map is evaluated at
(n+1)*alpha + omega, so that omega = 0 with the golden mean reproduces the
sequence 1,0,1,1,0,... (the image of the fixed point of a->ab, b->a under
f(a)=1, f(b)=0). The circle kind evaluates at n*alpha + omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import DomainError

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

# Continued-fraction expansion stops once the residual drops below this;
# smaller residuals are float noise and would produce garbage convergents.
_CF_RESIDUAL = 1e-12
_CF_MAX_TERMS = 64

# Largest substitution power tried when searching for a two-sided fixed point.
TWO_SIDED_POWER_CAP = 6

# Most letters a substitution approximant may write. Each rule application
# rewrites the whole word, so the budget counts the letters of every step:
# that bounds the time as well as the memory, also for rules that grow slowly.
MAX_SUBSTITUTION_LETTERS = 2 ** 20

# Most sites a sample or an approximant period may have: 32 MB of float64.
MAX_SITES = 2 ** 22

# Most steps one Floquet band computation may take, summed over the periods
# of a butterfly: about a minute of stacked bisection (pivot steps, or
# level products and merge steps for a level word, see bands).
MAX_FLOQUET_STEPS = 2 ** 32


@dataclass(frozen=True)
class SubstitutionRule:
    """A substitution on a finite alphabet, letter_i -> word over the alphabet.

    Letters are single characters, so a word is a string and one rule
    application is one ``str.translate``."""

    alphabet: tuple[str, ...]
    images: dict[str, str]
    _table: dict = field(init=False, repr=False, compare=False)

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
        """True if some power of the occurrence matrix is entrywise positive."""
        r = len(self.alphabet)
        b = self.matrix() > 0
        # Wielandt bound: a primitive r x r matrix has a positive power
        # no later than (r-1)^2 + 1.
        p = np.eye(r, dtype=bool)
        for _ in range((r - 1) ** 2 + 1):
            p = (p.astype(np.int64) @ b.astype(np.int64)) > 0
            if p.all():
                return True
        return False


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
    right: the words whose transfer matrices ``transfer.level_matrices`` holds,
    joined by ``transfer.block_product``. ``sites`` is the segment's length."""

    rule: SubstitutionRule
    letter_values: dict[str, float]
    blocks: tuple[tuple[int, str], ...]
    sites: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lengths = [dict.fromkeys(self.rule.alphabet, 1)]
        for _ in range(max(k for k, _ in self.blocks)):
            lengths.append({y: sum(lengths[-1][z] for z in self.rule.images[y])
                            for y in self.rule.alphabet})
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
    return _iterate_to(rule, seed, 1, min_length)


def _two_sided_letters(rule: SubstitutionRule, power_cap: int) -> tuple[str, str, int]:
    """Smallest power n <= cap and lexicographically first (left, right) letters
    with rule^n(left) ending in left and rule^n(right) starting with right,
    the seeds of every fixed point here. DomainError unless primitive."""
    if not rule.is_primitive():
        raise DomainError("substitution rule is not primitive")
    for n in range(1, power_cap + 1):
        left = [x for x in sorted(rule.alphabet) if rule.iterate(x, n).endswith(x)]
        right = [y for y in sorted(rule.alphabet) if rule.iterate(y, n).startswith(y)]
        if left and right:
            return left[0], right[0], n
    raise DomainError(f"no two-sided fixed point found for powers up to {power_cap}")


def generate_two_sided(rule: SubstitutionRule, lo: int, hi: int,
                       power_cap: int = TWO_SIDED_POWER_CAP) -> str:
    """Letters of a two-sided fixed-point sequence on the window lo..hi.

    Built as uv where u is a left fixed point occupying n <= 0 (ending at
    index 0) and v a right fixed point occupying n >= 1, both of the same
    power of the rule. The (left letter, right letter, power) choice is the
    lexicographically first valid one at the smallest power.
    """
    if hi < lo:
        return ""
    la, lb, n = _two_sided_letters(rule, power_cap)
    # Each iterate of u ends with the previous one, and each of v starts with
    # it. Site i <= 0 is u[len(u) - 1 + i], site i >= 1 is v[i - 1].
    left = right = ""
    if lo <= 0:
        u = _iterate_to(rule, la, n, 1 - lo)
        left = u[len(u) - 1 + lo:len(u) + min(hi, 0)]
    if hi >= 1:
        right = _iterate_to(rule, lb, n, hi)[max(lo, 1) - 1:hi]
    return left + right


def _iterate_to(rule: SubstitutionRule, w: str, n: int, size: int) -> str:
    """Apply rule^n to ``w`` until it has at least ``size`` letters."""
    while len(w) < size:
        grown = rule.iterate(w, n)
        if len(grown) == len(w):
            raise DomainError("substitution does not grow from its seed")
        w = grown
    return w


def fixed_point_blocks(rule: SubstitutionRule, n: int,
                       left: bool = False) -> list[tuple[int, str]]:
    """Sites 1..n of the right fixed point that ``generate_two_sided`` builds,
    or with ``left`` sites -n+1..0 of its left fixed point, as whole level
    blocks rule^k(x), left to right.

    With the (letter, power p) of ``generate_two_sided``, the sites are a
    prefix of rule^(pK)(right letter), or a suffix of rule^(pK)(left letter).
    It splits top level down: rule^(k+1)(x) is the level-k blocks of the
    letters of rule(x), the blocks that fit whole are taken from the prefix's
    start (the suffix's end), and the first that does not is split at the
    next level (the Dumont-Thomas expansion; Zeckendorf digits for
    Fibonacci). Block lengths are exact Python ints.
    """
    if n < 1:
        raise DomainError("a prefix needs at least one site")
    la, lb, p = _two_sided_letters(rule, TWO_SIDED_POWER_CAP)
    x = la if left else lb
    lengths = _level_lengths(rule, x, p, n)
    blocks, k, rest = [], len(lengths) - 1, n
    while rest:
        if lengths[k][x] == rest:
            blocks.append((k, x))
            break
        k -= 1
        for y in rule.images[x][::-1] if left else rule.images[x]:
            if lengths[k][y] > rest:
                x = y
                break
            blocks.append((k, y))
            rest -= lengths[k][y]
    return blocks[::-1] if left else blocks


def _level_lengths(rule: SubstitutionRule, x: str, p: int, size: int) -> list[dict[str, int]]:
    """lengths[k][y] = |rule^k(y)| as exact ints, for k = 0 up to the first
    multiple of ``p`` at which |rule^k(x)| >= ``size``."""
    lengths = [dict.fromkeys(rule.alphabet, 1)]
    while lengths[-1][x] < size:
        start = lengths[-1][x]
        for _ in range(p):
            lengths.append({y: sum(lengths[-1][z] for z in rule.images[y])
                            for y in rule.alphabet})
        if lengths[-1][x] == start:
            raise DomainError("substitution does not grow from its seed")
    return lengths


def fixed_point_window(spec: PotentialSpec, first: int, last: int) -> LevelWord | None:
    """The ``LevelWord`` spelling what ``sample_potential`` samples on sites
    first..last, or None. A substitution gets one on windows from site 1 or
    holding site 0: the left fixed point's suffix blocks (sites first..0) and
    the right one's prefix blocks (``fixed_point_blocks``). The golden-mean
    Sturmian at omega = 0, either rounding, is the Fibonacci right fixed point
    with a -> lam, b -> 0 (pinned in the tests over MAX_SITES sites) but not
    the left one (its sites 0 and -1 are b and a), so it gets words from site
    1 only. DomainError beyond MAX_SITES sites."""
    if spec.kind == "substitution" and first <= 1 and 0 <= last and first <= last:
        rule, letter_values = spec.rule, spec.letter_values
    elif (spec.kind == "sturmian" and spec.alpha == GOLDEN_MEAN and spec.omega == 0.0
          and first == 1 <= last):
        rule, letter_values = FIBONACCI_RULE, {"a": spec.lam, "b": 0.0}
    else:
        return None
    check_sites(last - first + 1)
    left = fixed_point_blocks(rule, 1 - first, left=True) if first <= 0 else []
    right = fixed_point_blocks(rule, last) if last >= 1 else []
    return LevelWord(rule, letter_values, tuple(left + right))


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
    if spec.kind == "almost-mathieu":
        return spec.lam * np.cos(2.0 * math.pi * (n * spec.alpha + spec.omega))
    if spec.kind == "sturmian":
        rnd = np.floor if spec.rounding == "floor" else np.ceil
        hi = rnd((n + 1.0) * spec.alpha + spec.omega)
        lo = rnd(n * spec.alpha + spec.omega)
        return spec.lam * (hi - lo)
    if spec.kind == "circle":
        return spec.lam * _circle_indicator(n * spec.alpha + spec.omega, spec.intervals)
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
    chain at alpha = p/q."""
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
    (``_two_sided_letters``), whose matrix ``level_matrices`` holds at level k,
    recorded as its ``level_word`` (so is a golden-mean Sturmian period, see
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
        _, x, p = _two_sided_letters(spec.rule, TWO_SIDED_POWER_CAP)
        # Application j writes level j. The table ends past the budget, so an
        # order beyond its last level is refused too.
        lengths = _level_lengths(spec.rule, x, p, MAX_SUBSTITUTION_LETTERS + 1)
        if sum(level[x] for level in lengths[1:order + 1]) > MAX_SUBSTITUTION_LETTERS:
            raise DomainError(f"order {order} writes more than "
                              f"{MAX_SUBSTITUTION_LETTERS} letters")
        word = spec.rule.iterate(x, order)
        return PeriodicPotential(tuple(_letter_values(word, spec.letter_values).tolist()),
                                 LevelWord(spec.rule, spec.letter_values, ((order, x),)))
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
        lengths = _level_lengths(FIBONACCI_RULE, "a", 1, q)
        block = FIBONACCI_RULE.iterate("a", len(lengths) - 1)
        letters = "".join("a" if v == spec.lam else "b" for v in values)
        if len(block) == q and letters in block + block:
            word = LevelWord(FIBONACCI_RULE, {"a": spec.lam, "b": 0.0},
                             ((len(lengths) - 1, "a"),))
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
