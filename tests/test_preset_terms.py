"""The SL(2,Z) preset term by term, against the three parts of the
Eichler-Selberg trace formula (ROADMAP item 9, first check).

``compare`` checks one number per (k, n), the total, so two errors that
cancel in it, such as a class weight moved between traces, would pass.  Here
``lefschetz_sl2z(k, n)``'s central, elliptic and parabolic II terms are each
held against their own part of tr T_n on S_k, scaled by n^(-(k-2)/2) as the
preset's total is: the t^2 = 4n part, the t^2 < 4n part and the divisor sum
(``reference.eichler_selberg_parts``).  The parts come from the reference's
own trace polynomial and reduced-form class counts; this module reads none
of ``ranklef.sl2``'s oracles or class counts, which ``tests/test_sl2.py``
checks.
"""

from fractions import Fraction

import pytest

from ranklef.sl2 import lefschetz_sl2z
from reference import eichler_selberg_parts

WEIGHTS = (4, 12, 16, 24, 40)
LEVELS = (*range(1, 60), 97, 100, 200, 2000)
# Relative to max(1, |part|).  Over WEIGHTS x LEVELS the terms read at most
# 1.2e-16 (central), 1.4e-13 (elliptic) and 4.8e-16 (parabolic II), so the
# bounds leave margins of about 8x, 7x and 20x.
BOUNDS = {"central": 1e-15, "elliptic": 1e-12, "parabolic_II": 1e-14}


@pytest.mark.parametrize("k", WEIGHTS)
def test_each_preset_term_matches_its_eichler_selberg_part(k):
    for n in LEVELS:
        bd = lefschetz_sl2z(k, n)
        scale = Fraction(n) ** ((k - 2) // 2)
        for (term, bound), part in zip(BOUNDS.items(), eichler_selberg_parts(k, n)):
            want = float(part / scale)
            got = getattr(bd, term)
            assert abs(got - want) <= bound * max(1.0, abs(want)), (term, k, n, got, want)
