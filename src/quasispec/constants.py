"""The golden mean and the size budgets, free of numpy.

The command line validates its options against these before any numeric
module is imported; ``potentials`` re-exports them under the same names.
"""

import math

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

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
