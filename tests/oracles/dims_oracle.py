"""Independent oracle for the closed-form dimension tests.

Produces frozen expected values via routes that do not share code with the
package: closed-form algebra, scipy bounded scalar minimization and brentq
roots.

Run:  python3 tests/oracles/dims_oracle.py
"""

import math

from scipy.optimize import brentq, minimize_scalar


def h2(p):
    """Two-point entropy, natural log."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def maximize(f, lo, hi):
    """Maximum of f on [lo, hi].  The bounded method never evaluates the
    endpoints and stops about xatol inside them, so a maximum on the
    boundary is taken from the endpoint values themselves."""
    res = minimize_scalar(lambda p: -f(p), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return max([(res.x, -res.fun), (lo, f(lo)), (hi, f(hi))],
               key=lambda candidate: candidate[1])


# ---------------------------------------------------------------- 3-map GL
# Two maps in one column, one in the other, every map 1/2 x 1/4.  With q the
# weight on the two-map column (split evenly inside), the dimension of the
# projected Bernoulli measure is H2(q)/log 2 + q/2; the closed-form maximum
# is log2(1 + sqrt(2)) at q = sqrt(2)/(1 + sqrt(2)).
def gl3_objective(q):
    return h2(q) / math.log(2) + q / 2.0


def report_gl3():
    q_star, val = maximize(gl3_objective, 0.0, 1.0)
    closed = math.log2(1 + math.sqrt(2))
    print("gl3 dimH  golden=%.15f  closed=%.15f  q*=%.12f (expect %.12f)"
          % (val, closed, q_star, math.sqrt(2) / (1 + math.sqrt(2))))
    print("gl3 dimB  closed=%.15f" % (1 + math.log(1.5) / math.log(4)))


# ------------------------------------------------- 12-map two-group family
# Group 1: 4 maps a1 x b stacked in one column; group 2: 8 maps a2 x b in
# four 2-map columns.  z(p) puts total weight p on group 2, uniformly within
# groups; this is optimal among all vectors with that group split, so the
# simplex optimizations reduce to one parameter.
def family(delta):
    a1 = 1.0 / 3.0 - delta
    a2 = 1.0 / 6.0 - delta
    b = 0.25 - delta
    return a1, a2, b


def chi1(p, a1, a2):
    return -(1 - p) * math.log(a1) - p * math.log(a2)


def s1(p, a1, a2, b):
    """Axis-1 Ledrappier-Young value on the z(p) curve."""
    chi2 = -math.log(b)
    return ((h2(p) + p * math.log(4)) / chi1(p, a1, a2)
            + ((1 - p) * math.log(4) + p * math.log(2)) / chi2)


def s2(p, a1, a2, b):
    """Axis-2 value: row marginal of z(p) is uniform, H(eta2) = log 4."""
    chi2 = -math.log(b)
    return math.log(4) / chi2 + (h2(p) + p * math.log(2)) / chi1(p, a1, a2)


def d1_reduction(p, a1, a2, b):
    """Two-group reduction printed for the family (not the full LY value)."""
    return h2(p) / chi1(p, a1, a2)


def d2_reduction(p, a1, a2, b):
    chi2 = -math.log(b)
    return math.log(4) / chi2 + (h2(p) - math.log(4)) / chi1(p, a1, a2)


def report_family(delta, label):
    a1, a2, b = family(delta)
    p0 = (math.log(a1) - math.log(b)) / (math.log(a1) - math.log(a2))
    pr1, sup_r1 = maximize(lambda p: d1_reduction(p, a1, a2, b), 0.0, 1.0)
    pr2, sup_r2 = maximize(lambda p: d2_reduction(p, a1, a2, b), 0.0, 1.0)
    # Constrained axis maxima: chi1 <= chi2 iff p <= p0.
    pu, _ = maximize(lambda p: s1(p, a1, a2, b), 0.0, 1.0)
    pd1, d1 = maximize(lambda p: s1(p, a1, a2, b), 0.0, p0)
    pd2, d2 = maximize(lambda p: s2(p, a1, a2, b), p0, 1.0)
    print("family delta=%s" % label)
    print("  p0=%.15f" % p0)
    print("  sup D1=%.15f at p=%.12f   sup D2=%.15f at p=%.12f"
          % (sup_r1, pr1, sup_r2, pr2))
    print("  d1=%.15f at p=%.12f (unconstrained argmax %.12f)"
          % (d1, pd1, pu))
    print("  d2=%.15f at p=%.12f" % (d2, pd2))


# ----------------------------------------------------------- box dimension
# Baranski (Adv. Math. 2007): dimB = max(D_1, D_2).  s_j is the Moran root of
# the axis-j projection, one ratio per distinct interval, and D_j solves
# sum_i a_i^s_j b_i^(D_j - s_j) = 1 over the maps, with a the axis-j ratio
# and b the orthogonal one.  For a wider-than-tall carpet D_1 is dimB.
def root(f, lo):
    return brentq(f, lo, 64.0, xtol=1e-15, rtol=8.9e-16)


def box_roots(maps):
    """(D_1, D_2) of maps given as (r1, r2, d1, d2) floats."""
    out = []
    for j in (0, 1):
        intervals = {(m[2 + j], m[j]) for m in maps}
        s = root(lambda t: sum(r ** t for _, r in intervals) - 1.0, 0.0)
        # the sum is >= 1 at d = s, up to rounding when no two maps share
        # an interval, so the bracket starts just below s
        out.append(root(lambda d: sum(m[j] ** s * m[1 - j] ** (d - s)
                                      for m in maps) - 1.0, s - 1e-9))
    return tuple(out)


def family_maps(delta):
    """The 12 maps of the family: the wide column of four cells, then two
    narrow columns in the bottom two rows and two in the top two."""
    a1, a2, b = family(delta)
    col_x = [a1 + (k + 1) * 1.25 * delta + k * a2 for k in range(4)]
    row_y = [i * (b + 4.0 * delta / 3.0) for i in range(4)]
    maps = [(a1, b, 0.0, y) for y in row_y]
    for cols, rows in (((0, 1), (0, 1)), ((2, 3), (2, 3))):
        maps += [(a2, b, col_x[k], row_y[i]) for k in cols for i in rows]
    return maps


def report_box(delta, label):
    d1, d2 = box_roots(family_maps(delta))
    print("family delta=%s  D1=%.15f  D2=%.15f  dimB=%.15f"
          % (label, d1, d2, max(d1, d2)))


# Four cells of a 4 x 2 grid with sides from 1/1000 to 199/200: a map with
# tiny width and height near 1 dominates the axis-2 sum, so Newton steps on
# sum_i a_i^s b_i^(D - s) = 1 from D = s grow before they shrink.
SLIVER_MAPS = [(9 / 25, 199 / 200, 0.0, 0.0),
               (1 / 1000, 199 / 200, 9 / 25, 0.0),
               (1 / 200, 1 / 250, 361 / 1000, 199 / 200),
               (317 / 500, 199 / 200, 183 / 500, 0.0)]


def report_sliver():
    d1, d2 = box_roots(SLIVER_MAPS)
    print("sliver grid carpet  D1=%r  D2=%r  dimB=%r"
          % (d1, d2, max(d1, d2)))


if __name__ == "__main__":
    report_gl3()
    for delta, label in [(0.0, "0"), (1.0 / 40.0, "1/40"),
                         (1.0 / 50.0, "1/50"), (1.0 / 60.0, "1/60")]:
        report_family(delta, label)
    for delta, label in [(0.0, "0"), (1.0 / 40.0, "1/40"), (1.0 / 7.0, "1/7")]:
        report_box(delta, label)
    report_sliver()
