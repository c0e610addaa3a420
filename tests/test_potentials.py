import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quasispec import (
    DomainError,
    FIBONACCI_RULE,
    GOLDEN_MEAN,
    PERIOD_DOUBLING_RULE,
    PeriodicPotential,
    THUE_MORSE_RULE,
    PotentialSpec,
    SubstitutionRule,
    approximant_by_denominator,
    convergents,
    generate_substitution_word,
    generate_two_sided,
    letter_frequencies,
    periodic_approximant,
    sample_potential,
)
from quasispec.potentials import (MAX_SITES, MAX_SUBSTITUTION_LETTERS, NAMED_RULES,
                                  TWO_SIDED_POWER_CAP, _two_sided_letters, cosine_period,
                                  fixed_point_blocks, fixed_point_window)

from conftest import RULES, primitive_rules

TRIBONACCI_RULE = SubstitutionRule(("a", "b", "c"), {"a": "ab", "b": "ac", "c": "a"})
# The half-width of the widest two-sided window within MAX_SITES.
HALF = MAX_SITES // 2 - 1


def iterate_to(rule, w, n, size):
    """Apply rule^n to ``w``, one letter image at a time, until it has at
    least ``size`` letters."""
    while len(w) < size:
        for _ in range(n):
            w = "".join(rule.images[ch] for ch in w)
    return w


def site_by_site_window(rule, lo, hi):
    """Reference two-sided window, read one site at a time from a left fixed
    point u (ending at site 0) and a right one v (from site 1), grown by whole
    string iteration from the sampler's seeds."""
    la, lb, n = _two_sided_letters(rule, TWO_SIDED_POWER_CAP)
    u = iterate_to(rule, la, n, 1 - lo) if lo <= 0 else ""
    v = iterate_to(rule, lb, n, hi) if hi >= 1 else ""
    return "".join(u[len(u) - 1 + i] if i <= 0 else v[i - 1] for i in range(lo, hi + 1))


def seeds_by_iteration(rule, cap):
    """Reference seeds, read off the spelled string iterates rule^n(x)."""
    if not rule.is_primitive():
        raise DomainError("substitution rule is not primitive")
    for n in range(1, cap + 1):
        left = [x for x in sorted(rule.alphabet) if rule.iterate(x, n).endswith(x)]
        right = [x for x in sorted(rule.alphabet) if rule.iterate(x, n).startswith(x)]
        if left and right:
            return left[0], right[0], n
    raise DomainError(f"no two-sided fixed point found for powers up to {cap}")


def primitive_by_linear_powers(rule):
    """Reference primitivity: every power of the occurrence pattern up to
    Wielandt's bound (r-1)^2 + 1, one product at a time."""
    r = len(rule.alphabet)
    b = (rule.matrix() > 0).astype(np.int64)
    p = np.eye(r, dtype=np.int64)
    for _ in range((r - 1) ** 2 + 1):
        p = ((p @ b) > 0).astype(np.int64)
        if p.all():
            return True
    return False


@st.composite
def any_rules(draw, max_letters):
    """Random rules on 2 to ``max_letters`` letters with images of 1 to 4
    letters, primitive or not."""
    alphabet = "abcdefgh"[:draw(st.integers(2, max_letters))]
    word = st.text(alphabet, min_size=1, max_size=4)
    return SubstitutionRule(tuple(alphabet), {x: draw(word) for x in alphabet})


def wielandt_rule(r):
    """x_i -> x_(i+1), x_r -> x_1 x_2: cycles of lengths r and r-1, so the
    occurrence matrix is first positive at Wielandt's bound (r-1)^2 + 1."""
    letters = [chr(0x100 + i) for i in range(r)]
    images = {x: letters[i + 1] for i, x in enumerate(letters[:-1])}
    images[letters[-1]] = letters[0] + letters[1]
    return SubstitutionRule(tuple(letters), images)


def spelled_values(word):
    """The values of the letters of ``word``, each block spelled by string
    iteration and looked up through a table of code points."""
    letters = "".join(word.rule.iterate(x, k) for k, x in word.blocks)
    table = np.zeros(256)
    table[[ord(x) for x in word.letter_values]] = list(word.letter_values.values())
    return table[np.frombuffer(letters.encode(), np.uint8)]


def matrix_lengths(rule, k):
    """Reference lengths |rule^k(y)| of every letter y, as exact ints: the
    column sums of the k-th power of the occurrence matrix, which shares no
    code with the rule's length table and spells no word."""
    sums = np.linalg.matrix_power(rule.matrix().astype(object), k).sum(axis=0)
    return dict(zip(rule.alphabet, sums))


def prefix_suffix_blocks(rule, seeds, first, last):
    """Reference blocks of a window from site 1 or holding site 0: the
    greedy split of the suffix (sites first..0) of the left block and the
    prefix (sites 1..last) of the right one, top level down."""
    left_letter, right_letter, p = seeds
    halves = []
    for x, n, left in ((left_letter, 1 - first, True), (right_letter, last, False)):
        k = 0
        while matrix_lengths(rule, k)[x] < n:
            k += p
        lengths = [matrix_lengths(rule, j) for j in range(k + 1)]
        blocks, rest = [], n
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
        halves.append(blocks)
    return tuple(halves[0][::-1] + halves[1])


class TestSubstitutionWords:
    def test_fibonacci_prefixes(self):
        assert generate_substitution_word(FIBONACCI_RULE, "a", 5) == "abaab"
        assert generate_substitution_word(FIBONACCI_RULE, "a", 8) == "abaababa"

    def test_seed_not_prolongable(self):
        with pytest.raises(DomainError):
            generate_substitution_word(FIBONACCI_RULE, "b", 3)

    def test_prefix_property(self):
        w1 = generate_substitution_word(THUE_MORSE_RULE, "a", 10)
        w2 = generate_substitution_word(THUE_MORSE_RULE, "a", 40)
        assert w2.startswith(w1)

    def test_non_primitive_rejected(self):
        rule = SubstitutionRule(("a", "b"), {"a": "aa", "b": "b"})
        with pytest.raises(DomainError):
            generate_substitution_word(rule, "a", 4)

    @pytest.mark.parametrize("rule", [*NAMED_RULES.values(), TRIBONACCI_RULE])
    def test_apply_equals_letter_by_letter_join(self, rule):
        word = rule.alphabet[-1]
        for _ in range(12):
            joined = "".join(rule.images[ch] for ch in word)
            word = rule.apply(word)
            assert word == joined

    @pytest.mark.parametrize("alphabet", [("a", "bb"), ("a", ""), ("a", 1)])
    def test_letters_must_be_single_characters(self, alphabet):
        with pytest.raises(DomainError):
            SubstitutionRule(alphabet, {a: "a" for a in alphabet})

    @given(any_rules(8))
    def test_primitivity_by_squaring_equals_linear_powers(self, rule):
        assert rule.is_primitive() == primitive_by_linear_powers(rule)

    @pytest.mark.parametrize("r", [2, 3, 5, 8])
    def test_primitive_exactly_at_the_wielandt_bound(self, r):
        rule = wielandt_rule(r)
        m = (rule.matrix() > 0).astype(np.int64)
        power = np.linalg.matrix_power(m, (r - 1) ** 2)
        assert not power.all() and (power @ m).all()
        assert rule.is_primitive() and primitive_by_linear_powers(rule)

    def test_wide_alphabets(self):
        letters = tuple(chr(0x100 + i) for i in range(150))
        assert not SubstitutionRule(letters, {x: x + x for x in letters}).is_primitive()
        assert wielandt_rule(150).is_primitive()


class TestTwoSided:
    def test_empty_window(self):
        assert generate_two_sided(THUE_MORSE_RULE, 2, 1) == ""

    def test_period_doubling_right_side(self):
        assert generate_two_sided(PERIOD_DOUBLING_RULE, 1, 8) == "abaaabab"

    @pytest.mark.parametrize("rule", [FIBONACCI_RULE, THUE_MORSE_RULE,
                                      PERIOD_DOUBLING_RULE, RULES["ba-ab"]])
    def test_fixed_point_invariance(self, rule):
        # The two-sided word must reproduce itself under the chosen power of
        # the substitution, anchored at the origin.
        _, _, n = _two_sided_letters(rule, 6)
        eta = rule.power(n)
        v = generate_two_sided(rule, 1, 30)
        assert eta.apply(v)[:30] == v
        u = generate_two_sided(rule, -30, 0)
        assert eta.apply(u).endswith(u)

    def test_no_fixed_point_within_cap(self):
        # A pure cyclic rotation has no prolongable letter at small powers.
        rule = SubstitutionRule(("a", "b"), {"a": "b", "b": "a"})
        with pytest.raises(DomainError):
            _two_sided_letters(rule, 1)

    def test_seeds_at_the_power_cap(self):
        # First letters fixed, last letters one 6-cycle.
        rule = SubstitutionRule(tuple("abcdef"), {x: x + "abcdef" + "bcdefa"[i]
                                                  for i, x in enumerate("abcdef")})
        assert _two_sided_letters(rule, 6) == seeds_by_iteration(rule, 6) == ("a", "a", 6)
        with pytest.raises(DomainError):
            _two_sided_letters(rule, 5)

    @given(any_rules(4) | st.sampled_from(list(RULES.values())))
    def test_seeds_equal_string_iteration(self, rule):
        try:
            want = seeds_by_iteration(rule, TWO_SIDED_POWER_CAP)
        except DomainError as exc:
            with pytest.raises(DomainError, match=str(exc)):
                _two_sided_letters(rule, TWO_SIDED_POWER_CAP)
        else:
            assert _two_sided_letters(rule, TWO_SIDED_POWER_CAP) == want

    @pytest.mark.parametrize("lo, hi", [(1, 2), (-1, 1)])
    def test_rule_that_does_not_grow(self, lo, hi):
        # a -> a is primitive (its 1x1 matrix is positive) but never grows.
        with pytest.raises(DomainError, match="does not grow"):
            generate_two_sided(SubstitutionRule(("a",), {"a": "a"}), lo, hi)


class TestSlicedWindows:
    """Windows spelled from their own level blocks, and letter values looked
    up by code point, equal the site-by-site reference bit for bit."""

    @given(st.sampled_from([*NAMED_RULES.values(), TRIBONACCI_RULE, RULES["ba-ab"]]),
           st.integers(-3000, 3000), st.integers(0, 3000), st.data())
    def test_window_and_values_equal_site_by_site(self, rule, lo, size, data):
        hi = lo + size
        word = generate_two_sided(rule, lo, hi)
        assert word == site_by_site_window(rule, lo, hi)
        values = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=len(rule.alphabet),
                                    max_size=len(rule.alphabet)))
        lv = dict(zip(rule.alphabet, values))
        got = sample_potential(PotentialSpec.substitution(rule, lv), lo, hi)
        want = np.array([lv[ch] for ch in word], dtype=float)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("name", RULES)
    def test_sampled_windows_equal_string_iteration(self, name):
        # Windows from site 1, holding site 0, and off the origin on either side.
        rule = RULES[name]
        lv = {x: float(i) + 0.25 for i, x in enumerate(rule.alphabet)}
        spec = PotentialSpec.substitution(rule, lv)
        for n, m in ((2, 1), (3, 2), (377, 610), (5000, 4321)):
            for lo, hi in ((1, n), (-n, n), (-m, 0), (2, n), (-m, -1)):
                want = [lv[ch] for ch in site_by_site_window(rule, lo, hi)]
                assert sample_potential(spec, lo, hi).tolist() == want, (lo, hi)

    def test_far_window_spells_its_own_blocks(self):
        # 11 sites at 10^9 are three level blocks; no earlier site is spelled.
        spec = PotentialSpec.substitution(THUE_MORSE_RULE, {"a": 1.0, "b": 0.0})
        word = fixed_point_window(spec, 10 ** 9, 10 ** 9 + 10)
        assert word.blocks == ((0, "b"), (3, "b"), (1, "a"))
        got = sample_potential(spec, 10 ** 9, 10 ** 9 + 10)
        assert np.array_equal(got, spelled_values(word))
        assert got.tolist() == [0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0]

    @pytest.mark.parametrize("first", [-MAX_SITES, -HALF, 1, 2, 10 ** 9, -10 ** 12])
    def test_budget_counts_the_window(self, first):
        spec = PotentialSpec.substitution(THUE_MORSE_RULE, {"a": 1.0, "b": 0.0})
        with pytest.raises(DomainError, match="budget"):
            sample_potential(spec, first, first + MAX_SITES)
        with pytest.raises(DomainError, match="budget"):
            generate_two_sided(THUE_MORSE_RULE, first, first + MAX_SITES)

    @given(st.sampled_from([*RULES.values(), TRIBONACCI_RULE]), st.integers(-3000, 1),
           st.integers(0, 3000))
    def test_windows_from_site_1_or_holding_0(self, rule, first, size):
        last = max(first, 0) + size
        assert generate_two_sided(rule, first, last) == site_by_site_window(rule, first, last)

    def test_single_site_windows(self):
        for i in (-2, 0, 1, 5):
            assert generate_two_sided(FIBONACCI_RULE, i, i) == site_by_site_window(
                FIBONACCI_RULE, i, i)


class TestSampling:
    @pytest.mark.parametrize("make", [
        lambda: PotentialSpec.explicit([1.0, math.nan]),
        lambda: PotentialSpec.explicit([math.inf, 0.0]),
        lambda: PotentialSpec.constant(math.nan),
        lambda: PotentialSpec.substitution(FIBONACCI_RULE, {"a": 1.0, "b": math.nan}),
        lambda: PeriodicPotential((0.5, -math.inf)),
    ])
    def test_non_finite_values_rejected(self, make):
        with pytest.raises(DomainError, match="finite"):
            make()

    def test_golden_sturmian_first_values(self):
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.0)
        assert sample_potential(spec, 1, 5).tolist() == [1, 0, 1, 1, 0]

    def test_almost_mathieu_half(self):
        spec = PotentialSpec.almost_mathieu(0.5, 2.0)
        np.testing.assert_allclose(sample_potential(spec, 1, 4),
                                   [-2, 2, -2, 2], atol=1e-12)

    def test_cosine_phase_is_reduced_mod_1(self):
        # 1e308 is an integer, and 2 pi 1e308 overflows to inf.
        for omega, reduced in ((1e308, 0.0), (3.25, 0.25), (-2.75, -0.75)):
            assert cosine_period(2.0, 3, 8, omega) == cosine_period(2.0, 3, 8, reduced)
            spec = PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.0, omega)
            assert np.array_equal(sample_potential(spec, -5, 5),
                                  sample_potential(spec.with_omega(reduced), -5, 5))

    @pytest.mark.parametrize("spec", [
        PotentialSpec.sturmian(GOLDEN_MEAN, 1.5),
        PotentialSpec.sturmian(GOLDEN_MEAN, 1.5, rounding="ceil"),
        PotentialSpec.circle(0.3, 1.5),
    ], ids=["sturmian-floor", "sturmian-ceil", "circle"])
    def test_two_valued_phase_is_reduced_mod_1(self, spec):
        # Both phases are exact floats, and fmod reduces the second exactly.
        assert np.array_equal(sample_potential(spec.with_omega(0.25 + 2.0 ** 40), -50, 50),
                              sample_potential(spec.with_omega(0.25), -50, 50))
        # 1e17 is an integer: the chain at omega 0, not a value of 16 lambda.
        assert np.array_equal(sample_potential(spec.with_omega(1e17), 1, 12),
                              sample_potential(spec, 1, 12))

    def test_constant_zero(self):
        spec = PotentialSpec.constant(0.0)
        assert not sample_potential(spec, -7, 9).any()

    def test_explicit_periodic_extension(self):
        spec = PotentialSpec.explicit([1.0, 2.0, 3.0])
        vals = sample_potential(spec, -2, 4)
        assert vals.tolist() == [1, 2, 3, 1, 2, 3, 1]

    def test_circle_matches_sturmian_shifted(self):
        # The circle kind at phase omega equals the floor-difference formula;
        # the Sturmian kind is the same sequence shifted by one site.
        alpha = GOLDEN_MEAN
        circ = PotentialSpec.circle(alpha, 1.0, omega=0.3)
        stur = PotentialSpec.sturmian(alpha, 1.0, omega=0.3)
        np.testing.assert_allclose(sample_potential(circ, 2, 30),
                                   sample_potential(stur, 1, 29))

    def test_bad_range(self):
        with pytest.raises(DomainError):
            sample_potential(PotentialSpec.constant(0.0), 3, 2)

    @given(st.floats(0.05, 0.95), st.floats(0.0, 1.0), st.floats(0.1, 3.0))
    def test_sturmian_two_valued(self, alpha, omega, lam):
        spec = PotentialSpec.sturmian(alpha, lam, omega)
        vals = sample_potential(spec, 1, 50)
        assert set(np.round(vals / lam).astype(int)) <= {0, 1}

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PotentialSpec.sturmian(1.5, 1.0)
        with pytest.raises(DomainError):
            PotentialSpec.almost_mathieu(0.5, 0.0)
        with pytest.raises(DomainError):
            PotentialSpec.explicit([])


class TestConvergents:
    def test_golden(self):
        assert convergents(GOLDEN_MEAN, 8) == [(0, 1), (1, 1), (1, 2), (2, 3),
                                               (3, 5), (5, 8)]

    def test_rational_terminates(self):
        assert convergents(1 / 3, 10) == [(0, 1), (1, 3)]

    def test_half_qmax_one(self):
        assert convergents(0.5, 1) == [(0, 1)]

    @given(st.floats(0.01, 0.99))
    def test_reduced_and_increasing(self, alpha):
        convs = convergents(alpha, 500)
        qs = [q for _, q in convs]
        assert qs == sorted(qs)
        for p, q in convs:
            assert math.gcd(p, q) == 1
            assert q <= 500

    @given(st.floats(0.01, 0.99))
    def test_approximation_quality(self, alpha):
        convs = convergents(alpha, 1000)
        # Skip the final convergent: for (near-)rational alpha it is exact
        # and the 1/q^2 bound needs a successor.
        for p, q in convs[1:-1]:
            assert abs(alpha - p / q) < 1.0 / q**2


class TestApproximants:
    def test_golden_q5(self):
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.0)
        assert periodic_approximant(spec, 4).values == (1, 0, 1, 1, 0)

    def test_substitution_order3(self):
        spec = PotentialSpec.substitution(FIBONACCI_RULE, {"a": 1.0, "b": 0.0})
        assert periodic_approximant(spec, 3).values == (1, 0, 1, 1, 0)

    def test_constant(self):
        assert periodic_approximant(PotentialSpec.constant(2.5), 7).values == (2.5,)

    def test_substitution_letter_budget(self):
        # Thue-Morse order k writes 2^(k+1) - 2 letters over its k steps.
        spec = PotentialSpec.substitution(THUE_MORSE_RULE, {"a": 1.0, "b": 0.0})
        assert periodic_approximant(spec, 19).period == 2 ** 19
        with pytest.raises(DomainError):
            periodic_approximant(spec, 20)
        # At order 10^6 this word has 10^6 + 1 letters, but the steps write ~5e11.
        # The rule is not primitive, which alone refuses it.
        slow = SubstitutionRule(("a", "b"), {"a": "ab", "b": "b"})
        with pytest.raises(DomainError):
            periodic_approximant(PotentialSpec.substitution(slow, {"a": 1.0, "b": 0.0}),
                                 10 ** 6)

    @given(primitive_rules(), st.integers(1, 6))
    def test_substitution_period_is_the_level_block(self, rule, order):
        # The period is rule^order(x) for the seed letter x that the sampler
        # grows its right half from, also where no image starts with its letter.
        _, x, _ = _two_sided_letters(rule, TWO_SIDED_POWER_CAP)
        lv = {y: float(i) - 0.5 for i, y in enumerate(rule.alphabet)}
        got = periodic_approximant(PotentialSpec.substitution(rule, lv), order).values
        assert got == tuple(lv[ch] for ch in rule.iterate(x, order))

    def test_substitution_seed_is_the_samplers(self):
        # b -> bc starts with b, but the sampled fixed point starts from a.
        rule = SubstitutionRule(("a", "b", "c"), {"a": "cbc", "b": "bc", "c": "acba"})
        lv = {"a": 1.0, "b": 2.0, "c": 3.0}
        spec = PotentialSpec.substitution(rule, lv)
        period = periodic_approximant(spec, 2).values
        assert period == tuple(lv[ch] for ch in rule.iterate("a", 2))
        assert period[:5] == tuple(sample_potential(spec, 1, 5))

    @pytest.mark.parametrize("spec", [
        PotentialSpec.constant(1.0),
        PotentialSpec.explicit([1.0, 2.0]),
        PotentialSpec.substitution(FIBONACCI_RULE, {"a": 1.0, "b": 0.0}),
    ], ids=["constant", "explicit", "substitution"])
    def test_by_denominator_needs_alpha(self, spec):
        with pytest.raises(DomainError, match="convergents"):
            approximant_by_denominator(spec, 13)

    def test_rational_alpha_exhausts(self):
        spec = PotentialSpec.sturmian(0.4, 1.0)
        with pytest.raises(DomainError):
            periodic_approximant(spec, 10)

    def test_pointwise_convergence(self):
        # Once the convergent denominator is large enough the approximant
        # agrees with the aperiodic sequence on a fixed window.
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.0)
        target = sample_potential(spec, 1, 15)
        for order in (8, 9, 10):  # q = 34, 55, 89
            appr = periodic_approximant(spec, order)
            assert appr.period >= 34
            np.testing.assert_allclose(np.array(appr.values)[:15], target)


def _fibonacci_numbers(n):
    F = [1, 1]
    while len(F) < n:
        F.append(F[-1] + F[-2])
    return F  # F[k - 1] is F_k


class TestFixedPointBlocks:
    @given(primitive_rules() | st.sampled_from(list(RULES.values())), st.integers(1, 5000),
           st.integers(0, 5000))
    def test_blocks_spell_both_halves(self, rule, n, m):
        # Prefix blocks spell sites 1..n, suffix blocks sites -n+1..0, each
        # block no longer than the one before it (after it, for the suffix);
        # the words of fixed_point_window spell the windows from site 1 and
        # those holding site 0.
        spec = PotentialSpec.substitution(rule, {x: 1.0 for x in rule.alphabet})
        for left, window in ((False, (1, n)), (True, (1 - n, 0))):
            blocks = fixed_point_window(spec, *window).blocks
            assert "".join(rule.iterate(x, k) for k, x in blocks) == \
                site_by_site_window(rule, *window)
            ks = [k for k, _ in blocks]
            assert ks == sorted(ks, reverse=not left)
        for window in ((1, n), (-n, n), (-m, n), (-m, 0)):
            word = fixed_point_window(spec, *window)
            letters = "".join(rule.iterate(x, k) for k, x in word.blocks)
            assert letters == site_by_site_window(rule, *window)
            assert word.sites == len(letters)


class TestFixedPointWindow:
    """``fixed_point_window`` gives a word on every nonempty window of a
    substitution and of the golden-mean Sturmian, and none on an empty one.
    The words it gives are spelled out here, in TestWindowSplit and
    TestShiftedGoldenWindows and, over MAX_SITES sites, in test_transfer,
    which also holds the specs that get no word on any window."""

    @pytest.mark.parametrize("spec, first, last", [
        (PotentialSpec.sturmian(GOLDEN_MEAN, 1.5), -10, 10),
        (PotentialSpec.sturmian(GOLDEN_MEAN, 1.5, rounding="ceil"), 0, 10),
    ], ids=["golden-two-sided", "golden-from-0"])
    def test_golden_word(self, spec, first, last):
        word = fixed_point_window(spec, first, last)
        letters = "".join(word.rule.iterate(x, k) for k, x in word.blocks)
        values = [word.letter_values[ch] for ch in letters]
        assert values == sample_potential(spec, first, last).tolist()

    @pytest.mark.parametrize("spec, first, last", [
        (PotentialSpec.sturmian(GOLDEN_MEAN, 1.5), 2, 10),
        (PotentialSpec.substitution(FIBONACCI_RULE, {"a": 1.0, "b": 0.0}), 2, 10),
        (PotentialSpec.substitution(FIBONACCI_RULE, {"a": 1.0, "b": 0.0}), -10, -1),
    ], ids=["golden-from-2", "substitution-from-2", "substitution-left-of-0"])
    def test_off_origin_word(self, spec, first, last):
        word = fixed_point_window(spec, first, last)
        assert np.array_equal(spelled_values(word), sample_potential(spec, first, last))

    @pytest.mark.parametrize("spec, first, last", [
        (PotentialSpec.substitution(FIBONACCI_RULE, {"a": 1.0, "b": 0.0}), 1, 0),
    ], ids=["empty"])
    def test_no_word(self, spec, first, last):
        assert fixed_point_window(spec, first, last) is None


class TestWindowSplit:
    """``fixed_point_blocks`` writes any window of the two-sided fixed point,
    and those from site 1 or holding site 0 as the prefix and suffix splits
    did."""

    @given(primitive_rules() | st.sampled_from(list(RULES.values())),
           st.integers(-5000, 5000), st.integers(0, 3000))
    def test_any_window_equals_site_by_site(self, rule, first, size):
        spec = PotentialSpec.substitution(rule, {x: 1.0 for x in rule.alphabet})
        word = fixed_point_window(spec, first, first + size)
        letters = "".join(rule.iterate(x, k) for k, x in word.blocks)
        assert letters == site_by_site_window(rule, first, first + size)
        assert word.sites == size + 1

    @given(primitive_rules() | st.sampled_from(list(RULES.values())),
           st.integers(-5000, 1), st.integers(0, 5000))
    def test_windows_at_the_origin_keep_their_blocks(self, rule, first, last):
        seeds = _two_sided_letters(rule, TWO_SIDED_POWER_CAP)
        assert fixed_point_blocks(rule, seeds, first, last) == \
            prefix_suffix_blocks(rule, seeds, first, last)

    @pytest.mark.parametrize("first, last", [(1, 1), (0, 0), (-HALF, HALF),
                                             (1, MAX_SITES), (-10**9, 10**9)])
    @pytest.mark.parametrize("rounding", ["floor", "ceil"])
    def test_golden_blocks_at_omega_0_are_unchanged(self, first, last, rounding):
        seeds = ("b" if rounding == "floor" else "a", "a", 2)
        assert fixed_point_blocks(FIBONACCI_RULE, seeds, first, last) == \
            prefix_suffix_blocks(FIBONACCI_RULE, seeds, first, last)


class TestLengthTable:
    """Each rule keeps one length table, grown as far as its callers need."""

    @pytest.mark.parametrize("spec, first, last", [
        (PotentialSpec.substitution(FIBONACCI_RULE, {"a": 2.0, "b": -0.5}), 1, 10_000),
        (PotentialSpec.substitution(THUE_MORSE_RULE, {"a": 1.0, "b": -1.0}), -5000, 5000),
        (PotentialSpec.substitution(PERIOD_DOUBLING_RULE, {"a": 1.0, "b": 0.0}), 10**9, 10**9 + 10),
        (PotentialSpec.sturmian(GOLDEN_MEAN, 2.0, 0.3), 1, 10_000),
    ], ids=["fibonacci", "thue-morse-two-sided", "period-doubling-far", "golden-omega"])
    def test_a_second_window_adds_no_level(self, spec, first, last):
        rule = spec.rule or FIBONACCI_RULE
        want = fixed_point_window(spec, first, last)
        table = rule._lengths
        word = fixed_point_window(spec, first, last)
        assert rule._lengths is table
        assert word == want and word.sites == want.sites == last - first + 1
        top = max(k for k, _ in word.blocks)
        assert table[:top + 1] == [matrix_lengths(rule, k) for k in range(top + 1)]

    def test_rules_with_equal_images_are_equal_whatever_their_tables_hold(self):
        grown, fresh = (SubstitutionRule(("a", "b"), {"a": "ab", "b": "a"}) for _ in range(2))
        grown.lengths(40)
        assert len(grown._lengths) == 41 and fresh._lengths == []
        assert grown == fresh == FIBONACCI_RULE and repr(grown) == repr(fresh)
        assert PotentialSpec.substitution(grown, {"a": 1.0, "b": 0.0}) == \
            PotentialSpec.substitution(fresh, {"a": 1.0, "b": 0.0})

    def test_a_rule_that_does_not_grow_is_refused_on_every_call(self):
        rule = SubstitutionRule(("a",), {"a": "a"})
        spec = PotentialSpec.substitution(rule, {"a": 1.0})
        for _ in range(2):
            for call in (lambda: rule.lengths(0), lambda: fixed_point_window(spec, 1, 1),
                         lambda: generate_substitution_word(rule, "a", 1)):
                with pytest.raises(DomainError, match="does not grow"):
                    call()
        assert rule._lengths == []

    def test_a_refused_order_grows_the_table_no_further_than_the_budget(self):
        # Five letters in a cycle with one doubling: seeds at power 5, and
        # the level lengths grow by a factor of about 1.17 a level.
        rule = SubstitutionRule(tuple("abcde"), {"a": "ab", "b": "c", "c": "d", "d": "e",
                                                 "e": "a"})
        spec = PotentialSpec.substitution(rule, dict.fromkeys("abcde", 1.0))
        _, x, _ = _two_sided_letters(rule, TWO_SIDED_POWER_CAP)
        written, passed = 0, 0
        while written <= MAX_SUBSTITUTION_LETTERS:
            passed += 1
            written += matrix_lengths(rule, passed)[x]
        with pytest.raises(DomainError, match="letters"):
            periodic_approximant(spec, 10**6)
        assert passed == 43 and len(rule._lengths) <= passed + 1


def _cuts(first, last):
    """The window's discontinuities {-k alpha}, k = first..last+1, in floats."""
    return np.mod(-GOLDEN_MEAN * np.arange(first, last + 2, dtype=float), 1.0)


def float_cell_shift(spec, first, last):
    """Reference shift: the least m >= 1 - first with {m alpha} strictly
    inside omega's cell between the window's discontinuities {-k alpha},
    k = first..last+1, in floats; None if none is found.

    The cell is read off the sampler's own arguments x_k = k alpha + omega,
    negated for ceil rounding: it reaches min {x_k} below omega and
    1 - max {x_k} above it (the other way round for ceil). The candidates
    go in 4 runs of n + 1, the number of cuts: by the three-gap theorem every
    cell of n + 1 points holds one of the next few n + 1 multiples."""
    omega = math.fmod(spec.omega, 1.0)
    x = np.arange(first, last + 2, dtype=float) * spec.alpha + omega
    if spec.rounding == "ceil":
        x = -x
    x -= np.floor(x)
    near = x.min()
    width = near + (1.0 - x.max())
    low = omega - near if spec.rounding == "floor" else omega + near - width
    for start in range(1 - first, 1 - first + 4 * len(x), len(x)):
        y = np.arange(start, start + len(x), dtype=float) * spec.alpha - low
        y -= np.floor(y)
        hit = np.flatnonzero((y > 0.0) & (y < width))
        if hit.size:
            return start + int(hit[0])
    return None


class TestShiftedGoldenWindows:
    """The golden-mean Sturmian at every phase is a factor window of the
    right Fibonacci fixed point (Damanik-Killip-Lenz); every word
    ``fixed_point_window`` gives spells the samples exactly, and its blocks
    are those of the float phase-cell shift (``float_cell_shift``)."""

    WINDOWS = [(1, 1), (1, 2), (1, 3000), (-1, 1), (-1500, 1500), (2, 10), (-10, -1),
               (777, 5000), (-90_000, -80_000), (10**7, 10**7 + 4181)]

    @pytest.mark.parametrize("rounding", ["floor", "ceil"])
    def test_random_negative_and_large_phases(self, rounding):
        rng = np.random.default_rng(29)
        phases = [*rng.uniform(0.0, 1.0, 4), *rng.uniform(-3.0, 0.0, 2),
                  *rng.uniform(1.0, 1e6, 2), 1.0 - 2.0 ** -53, -0.5]
        for omega in phases:
            spec = PotentialSpec.sturmian(GOLDEN_MEAN, float(rng.uniform(-3.0, 3.0)),
                                          float(omega), rounding)
            for first, last in self.WINDOWS:
                word = fixed_point_window(spec, first, last)
                assert word is not None, (omega, first, last)
                assert word.sites == last - first + 1
                assert np.array_equal(spelled_values(word), sample_potential(spec, first, last))

    @pytest.mark.parametrize("rounding", ["floor", "ceil"])
    def test_integer_phases(self, rounding):
        # omega = 0 mod 1 keeps the unsampled word on windows from site 1 or
        # holding site 0; a window ending at site -1 ends on a discontinuity.
        for omega in (0.0, -0.0, 1.0, -3.0, 2.0 ** 40):
            spec = PotentialSpec.sturmian(GOLDEN_MEAN, 2.0, omega, rounding)
            for first, last in self.WINDOWS:
                word = fixed_point_window(spec, first, last)
                assert np.array_equal(spelled_values(word), sample_potential(spec, first, last))

    @pytest.mark.parametrize("rounding", ["floor", "ceil"])
    @pytest.mark.parametrize("first, last", [(1, 500), (-250, 250), (4000, 4300),
                                             (-7000, -6001)])
    def test_on_and_one_ulp_from_every_discontinuity(self, first, last, rounding):
        # The cell is read off the sampler's own arguments, so a phase on
        # either side of a discontinuity, or on it, gets its word too.
        for cut in _cuts(first, last):
            for omega in (np.nextafter(cut, -1.0), cut, np.nextafter(cut, 2.0)):
                spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.5, float(omega), rounding)
                word = fixed_point_window(spec, first, last)
                assert np.array_equal(spelled_values(word), sample_potential(spec, first, last))

    @pytest.mark.parametrize("first, last, omega", [
        (1, MAX_SITES, 0.3),
        (-HALF, HALF, -0.71),
        (3 * 10**6, 3 * 10**6 + MAX_SITES - 1, 5.5),
        (-10**8, -10**8 + 2**20, 0.123),
    ], ids=["from-1", "two-sided", "off-origin", "left-off-origin"])
    def test_long_windows(self, first, last, omega):
        rounding = "ceil" if first < 0 else "floor"
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, -2.0, omega, rounding)
        word = fixed_point_window(spec, first, last)
        assert np.array_equal(spelled_values(word), sample_potential(spec, first, last))

    @settings(max_examples=2000)
    @given(st.integers(-5000, 5000), st.integers(1, 3000), st.floats(-2.0, 2.0),
           st.sampled_from(["floor", "ceil"]))
    def test_blocks_equal_the_float_cell_shift(self, first, size, omega, rounding):
        last = first + size - 1
        assume(not (math.fmod(omega, 1.0) == 0.0 and first <= 1 and 0 <= last))
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.5, omega, rounding)
        seeds = ("b" if rounding == "floor" else "a", "a", 2)
        m = float_cell_shift(spec, first, last)
        assert fixed_point_window(spec, first, last).blocks == \
            fixed_point_blocks(FIBONACCI_RULE, seeds, first + m, last + m)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_samples_that_are_not_letters_get_no_word(self, lam):
        # At lam = inf the b sites sample inf * 0 = nan, which is no letter.
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, lam, 0.4)
        with np.errstate(invalid="ignore"):
            assert fixed_point_window(spec, -300, 300) is None
            assert fixed_point_window(spec, 1, 3000) is None


class TestLevelBlockProvenance:
    """Golden-mean Sturmian periods are cyclic shifts of the Fibonacci level
    block of their length, and say so; no other alpha-based period does."""

    @pytest.mark.parametrize("rounding", ["floor", "ceil"])
    @pytest.mark.parametrize("k", range(3, 18))
    def test_golden_periods_are_level_blocks(self, k, rounding):
        q = _fibonacci_numbers(17)[k - 1]
        rng = np.random.default_rng(k)
        phases = [0.0, 1.0 / q, float(q // 2) / q, float(q - 1) / q, *rng.uniform(0, 1, 3)]
        for omega in phases:
            lam = float(rng.uniform(-3.0, 3.0)) or 1.0
            spec = PotentialSpec.sturmian(GOLDEN_MEAN, lam, omega, rounding)
            for period in (approximant_by_denominator(spec, q),
                           periodic_approximant(spec, k - 1)):
                word = period.level_word
                assert period.period == q == word.sites
                assert (word.rule, word.letter_values, word.blocks) == \
                    (FIBONACCI_RULE, {"a": lam, "b": 0.0}, ((k - 2, "a"),))
                block = FIBONACCI_RULE.iterate("a", k - 2)
                letters = "".join("a" if v == lam else "b" for v in period.values)
                assert len(block) == q and letters in block + block

    def test_substitution_periods_carry_their_block(self):
        spec = PotentialSpec.substitution(THUE_MORSE_RULE, {"a": 1.0, "b": -1.0})
        word = periodic_approximant(spec, 5).level_word
        assert (word.rule, word.blocks, word.sites) == (THUE_MORSE_RULE, ((5, "a"),), 32)

    @pytest.mark.parametrize("spec", [
        PotentialSpec.sturmian(2 ** 0.5 - 1, 1.5),
        PotentialSpec.sturmian(1.0 - GOLDEN_MEAN, 1.5),
        PotentialSpec.sturmian(0.6180339887, 1.5),
        PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.0, 0.3),
        PotentialSpec.circle(GOLDEN_MEAN, 1.5),
    ], ids=["silver", "other-golden", "rounded-golden", "almost-mathieu", "circle"])
    def test_other_periods_carry_none(self, spec):
        for q in (13, 89, 377):
            assert approximant_by_denominator(spec, q).level_word is None
        assert periodic_approximant(PotentialSpec.explicit([1.0, 0.0]), 1).level_word is None

    def test_block_takes_no_part_in_comparisons(self):
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.0)
        period = approximant_by_denominator(spec, 13)
        plain = type(period)(period.values)
        assert period.level_word is not None and plain.level_word is None
        assert period == plain and hash(period) == hash(plain)


class TestLetterFrequencies:
    def test_fibonacci(self):
        freq = letter_frequencies(FIBONACCI_RULE)
        assert freq["a"] == pytest.approx(GOLDEN_MEAN, abs=1e-12)
        assert freq["b"] == pytest.approx(1 - GOLDEN_MEAN, abs=1e-12)

    def test_thue_morse(self):
        freq = letter_frequencies(THUE_MORSE_RULE)
        assert freq["a"] == pytest.approx(0.5, abs=1e-12)

    def test_period_doubling(self):
        freq = letter_frequencies(PERIOD_DOUBLING_RULE)
        assert freq["a"] == pytest.approx(2 / 3, abs=1e-12)
        assert freq["b"] == pytest.approx(1 / 3, abs=1e-12)

    def test_non_primitive(self):
        rule = SubstitutionRule(("a", "b"), {"a": "aa", "b": "b"})
        with pytest.raises(DomainError):
            letter_frequencies(rule)

    @pytest.mark.parametrize("rule", [FIBONACCI_RULE, THUE_MORSE_RULE,
                                      PERIOD_DOUBLING_RULE])
    def test_normalized_and_square_invariant(self, rule):
        freq = letter_frequencies(rule)
        assert sum(freq.values()) == pytest.approx(1.0, abs=1e-12)
        freq2 = letter_frequencies(rule.power(2))
        for a in rule.alphabet:
            assert freq[a] == pytest.approx(freq2[a], abs=1e-10)


class TestAperiodicStructure:
    def test_sturmian_prefix_is_substitution_image(self):
        # The golden-mean sequence coincides with the letter image of the
        # substitution fixed point, out to 10^4 sites.
        n = 10_000
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.0)
        vals = sample_potential(spec, 1, n)
        word = generate_substitution_word(FIBONACCI_RULE, "a", n)
        image = np.array([1.0 if ch == "a" else 0.0 for ch in word[:n]])
        np.testing.assert_array_equal(vals, image)

    def test_almost_periods(self):
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.0)
        fib = [1, 1]
        while len(fib) < 16:
            fib.append(fib[-1] + fib[-2])
        vals = sample_potential(spec, 1, 2 * fib[15])
        for n in range(3, 16):
            f = fib[n]
            np.testing.assert_array_equal(vals[f:2 * f], vals[:f],
                                          err_msg=f"almost-period F_{n}={f}")
