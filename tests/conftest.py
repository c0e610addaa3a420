import numpy as np
import pytest
from hypothesis import HealthCheck, assume, settings, strategies as st

from quasispec import DomainError, SubstitutionRule
from quasispec.potentials import NAMED_RULES, TWO_SIDED_POWER_CAP, _two_sided_letters

settings.register_profile(
    "default",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20230811)


# The named rules, a rule-file-style rule with unequal image lengths, and one
# whose fixed point needs the square of the rule (no image starts with its letter).
RULES = {**NAMED_RULES, "aab-ba": SubstitutionRule(("a", "b"), {"a": "aab", "b": "ba"}),
         "ba-ab": SubstitutionRule(("a", "b"), {"a": "ba", "b": "ab"})}


def _admissible(rule: SubstitutionRule) -> bool:
    try:
        _two_sided_letters(rule, TWO_SIDED_POWER_CAP)
    except DomainError:
        return False
    return True


@st.composite
def primitive_rules(draw) -> SubstitutionRule:
    """Random rules on 2 or 3 letters with images of 1 to 4 letters that
    ``_two_sided_letters`` accepts: primitive, with a two-sided fixed point."""
    alphabet = "abc"[:draw(st.integers(2, 3))]
    word = st.text(alphabet, min_size=1, max_size=4)
    rule = SubstitutionRule(tuple(alphabet), {x: draw(word) for x in alphabet})
    assume(_admissible(rule))
    return rule
