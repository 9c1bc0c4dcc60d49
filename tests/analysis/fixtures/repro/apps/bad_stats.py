"""Known-bad fixture: every STA001 trigger (tests pin the line numbers)."""

import scipy
import scipy.stats
import scipy.special as sp
from scipy import optimize, stats
from scipy.special import ndtri
from scipy.stats import norm  # repro: allow[STA001] suppressed, not reported


def quantiles(q):
    return stats.norm.ppf(q), sp.ndtri(q), ndtri(q), norm.ppf(q), scipy.__version__
