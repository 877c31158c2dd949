"""Differential test of the profile classes against the first build.

weights.TruncatedSeriesEvaluator keeps each set of piece-count vectors as a
set of mixed-radix positions: a bit set while the catalog's positions are
few, a frozenset beyond that.  oracles.ProfilesReference keeps the first
build, Python sets of vectors packed 16 bits to a piece.  The two must give
the same classes in the same order, with the same sizes, coefficients and
count vectors, and put every tree in the same class: the evaluator sums
the classes in that order, so a different order changes its floats.
"""

import pytest

from bridgeforest import treekit as tk
from bridgeforest import weights as wt

import oracles

# (t_max, u_max) and the truncation orders to build; (4, 5) and (4, 6)
# have more positions than a bit set takes at k = 12, and (4, 6) at k = 10
CASES = [
    ((1, 1), range(1, 15)),
    ((2, 2), range(1, 15)),
    ((1, 3), range(1, 15)),
    ((4, 3), range(1, 15)),
    ((4, 4), range(1, 13)),
    ((4, 5), (10, 12)),
    ((4, 6), (10, 12)),
]


def width(u0, k):
    """Number of mixed-radix positions, prod_j (k // |u0_j| + 1)."""
    out = 1
    for u in u0:
        out *= k // u.size + 1
    return out


@pytest.mark.parametrize("catalog, ks", CASES, ids=[f"t{t}-u{u}" for (t, u), _ in CASES])
def test_profiles_match_reference(catalog, ks):
    u0 = tk.Catalog.standard(*catalog).u0
    for k in ks:
        new = wt.TruncatedSeriesEvaluator(u0, k)
        ref = oracles.ProfilesReference(u0, k)
        assert new.sizes == ref.sizes, k
        assert new.coeff == ref.coeff, k
        assert new.counts == ref.counts, k
        if k == max(ks):
            for u in tk.enumerate_unrooted(k):
                assert new.index(u.code) == ref.index(u.code), (k, u.code)
        if isinstance(new.states.sets, wt._BitSets):
            # the vectors of trees of at most k vertices never carry, so
            # no set reaches past the last position
            widest = max(vs.bit_length() for state in new.states._states for _, vs in state)
            assert widest <= width(u0, k) <= wt._BIT_SET_POSITIONS, k


@pytest.mark.parametrize(
    "u_max, k, form",
    [
        (3, 20, wt._BitSets),
        (4, 18, wt._BitSets),
        (5, 10, wt._BitSets),
        (5, 12, wt._FrozenSets),
        (6, 10, wt._FrozenSets),
        (7, 12, wt._FrozenSets),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_width_rule(u_max, k, form):
    u0 = tk.Catalog.standard(4, u_max).u0
    assert isinstance(wt._PieceStates(u0, k).sets, form)
    assert (width(u0, k) <= wt._BIT_SET_POSITIONS) == (form is wt._BitSets)
