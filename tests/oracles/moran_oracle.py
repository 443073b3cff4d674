"""Independent reference values for the Moran/window solvers.

Run directly to regenerate the constants frozen into test_moran.py and
test_acceptance.py.  Deliberately avoids the package: roots come from
scipy.optimize.brentq on the raw equations, plus closed forms where one
exists.
"""

import math

from scipy.optimize import brentq


def moran_root(ratios):
    f = lambda s: sum(r ** s for r in ratios) - 1.0
    return brentq(f, 0.0, 64.0, xtol=1e-15, rtol=8.9e-16)


LARGE_MIXED = [0.98, 0.95, 0.9, 0.9, 0.6, 0.1, 0.001]


def window_root(window):
    f = lambda t: sum(math.log(sum(r ** t for r in w)) for w in window) - 0.0
    return brentq(f, 0.0, 64.0, xtol=1e-15, rtol=8.9e-16)


if __name__ == "__main__":
    # Row multiset of the exceptional family at delta = 0.
    print("root{1/3,1/6,1/6}  = %.15f" % moran_root([1 / 3, 1 / 6, 1 / 6]))
    # Same multiset at delta = 1/40 (37/120, 17/120, 17/120).
    print("root{37/120,17/120 x2} = %.15f"
          % moran_root([37 / 120, 17 / 120, 17 / 120]))
    # Closed forms.
    print("root{1/2,1/2}      = 1 exactly; brentq %.15f"
          % moran_root([0.5, 0.5]))
    print("root{1/4,1/4}      = 1/2 exactly; brentq %.15f"
          % moran_root([0.25, 0.25]))
    print("root{1/3,1/6 x4}   = 1 exactly; brentq %.15f"
          % moran_root([1 / 3] + [1 / 6] * 4))
    # Alternating window {1/4,1/4},{1/4}: 2 * (1/16)^t = 1 -> t = 1/4.
    print("window alt         = 1/4 exactly; brentq %.15f"
          % window_root([[0.25, 0.25], [0.25]]))
    # Exceptional columns at delta = 1/40: {alpha1, alpha2 x4}.
    print("root{a1,a2 x4}@1/40 = %.15f"
          % moran_root([37 / 120] + [17 / 120] * 4))
    # 4 rows of beta = 9/40.
    print("root{9/40 x4}      = %.15f" % moran_root([9 / 40] * 4))
    # Large roots: seven ratios of 0.95 (closed form log 7 / -log 0.95)
    # and a mixed multiset dominated by ratios near 1.
    print("root{0.95 x7}      = %.15f; closed %.15f"
          % (moran_root([0.95] * 7), math.log(7) / -math.log(0.95)))
    print("root{mixed large}  = %.15f" % moran_root(LARGE_MIXED))
