"""Diagonal planar IFS model: maps, validation, projections, symbolic words.

A system is a finite list of affine contractions of the unit square

    T_i(x, y) = (r1_i * x + d1_i,  r2_i * y + d2_i),   0 < r1_i, r2_i < 1.

Which axes a carpet uses is decided once, by ``long_axes``: the axes along
which some map is longer than across it, or both when every map is square.
A carpet and its mirror in x = y get the same axes, swapped.  Class
detection follows the usual carpet taxonomy:

* ``GatzourasLalley`` -- open images pairwise disjoint, exactly one long
  axis j, and the axis-j projections of any two maps either identical or
  with disjoint open intervals (aligned on j).  j = 1: no map is taller
  than wide, the classes are columns; j = 2 is its mirror, with rows.
* ``Baranski`` -- open images pairwise disjoint, aligned on *both* axes
  (columns and rows), and both axes long.
* ``DiagonalOnly`` -- anything else with valid ratios; the symbolic machinery
  still works but no closed-form dimension applies.

Entries given as ``fractions.Fraction`` are kept exact; the config
format's ``[num, den]`` and ints in DiagonalMaps, tuples and configs
become Fractions.
One comparator, ``_compare``, settles every comparison of map data:
exactly when every entry of the system is a Fraction, otherwise in floats
with differences within 1e-12 counted as ties.  So on rational input these
decisions are exact: the eta_j classes, alignment, strong separation, the
GatzourasLalley / Baranski class, each map's orientation (the sign of
r1 - r2, kept as ``orientation`` and read by ``long_axes`` alone), the
orientation class of a word (``classify_word``) and the unit-square
warning.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .errors import InvalidSystem

_TOL = 1e-12

GATZOURAS_LALLEY = "GatzourasLalley"
BARANSKI = "Baranski"
DIAGONAL_ONLY = "DiagonalOnly"


def as_number(value):
    """Normalize a config scalar: int -> Fraction, [num, den] -> Fraction,
    Fraction stays, float stays float (inexact).

    This is the one gate for every number a command reads: booleans (also
    inside a [num, den] pair), a zero denominator, and any value whose
    float is not finite -- NaN, infinities, and ints or rationals too large
    for a float -- raise InvalidSystem."""
    if isinstance(value, bool):
        raise InvalidSystem("boolean is not a number: %r" % value)
    if isinstance(value, int):
        number = Fraction(value)
    elif isinstance(value, (float, Fraction)):
        number = value
    elif isinstance(value, (list, tuple)) and len(value) == 2 \
            and all(type(v) is int for v in value) and value[1] != 0:
        number = Fraction(value[0], value[1])
    else:
        raise InvalidSystem("cannot read number from %r" % (value,))
    try:
        if math.isfinite(number):
            return number
    except OverflowError:       # an int or rational beyond the float range
        pass
    raise InvalidSystem("%r is not a finite number" % (value,))


@dataclass(frozen=True)
class DiagonalMap:
    r1: object
    r2: object
    d1: object
    d2: object

    def ratio(self, axis: int):
        return self.r1 if axis == 1 else self.r2

    def offset(self, axis: int):
        return self.d1 if axis == 1 else self.d2

    @property
    def exact(self) -> bool:
        return all(isinstance(v, Fraction)
                   for v in (self.r1, self.r2, self.d1, self.d2))


@dataclass(frozen=True)
class ProjectionClass:
    """One eta_j equivalence class: maps sharing the exact axis-j similarity."""
    ratio: object
    offset: object
    members: tuple


@dataclass(frozen=True)
class CarpetSystem:
    maps: tuple
    klass: str
    columns: tuple          # eta_1 classes, sorted by offset
    rows: tuple             # eta_2 classes, sorted by offset
    eta1_ssc: bool
    eta2_ssc: bool
    eta1_aligned: bool      # projection condition on axis 1 (see validate)
    eta2_aligned: bool
    orientation: tuple      # per map, the sign of r1 - r2 (see long_axes)
    warnings: tuple = field(default=())

    def __len__(self):
        return len(self.maps)

    @property
    def exact(self) -> bool:
        return all(m.exact for m in self.maps)

    def classes(self, axis: int):
        return self.columns if axis == 1 else self.rows

    @cached_property
    def analysis(self):
        """dimensions.Analysis of this system, made on first use."""
        from .dimensions import Analysis
        return Analysis(self)

    @cached_property
    def packing_constant(self):
        """The constant of geometry.packing_check, made on first use."""
        from .geometry import _packing_constant
        return _packing_constant(self)

    @cached_property
    def _class_indices(self):
        return tuple(MappingProxyType({i: cid for cid, cls in
                                       enumerate(self.classes(axis))
                                       for i in cls.members})
                     for axis in (1, 2))

    def __getstate__(self):
        # cached values are remade on first use, so copies leave them behind
        return {k: v for k, v in self.__dict__.items()
                if k not in ("analysis", "packing_constant", "_class_indices")}

    def aligned(self, axis: int) -> bool:
        """Distinct axis classes have disjoint open intervals."""
        return self.eta1_aligned if axis == 1 else self.eta2_aligned

    def class_index(self, axis: int):
        """map index -> class id on the given axis, read-only and built once
        per system."""
        return self._class_indices[0 if axis == 1 else 1]


def _compare(a, b, exact):
    """Sign of a - b for map data: exact when ``exact`` (every entry a
    Fraction), otherwise 0 within the 1e-12 tolerance of float input."""
    if exact:
        return (a > b) - (a < b)
    diff = float(a) - float(b)
    return (diff > _TOL) - (diff < -_TOL)


def _group_axis(maps, axis, exact):
    """Group maps by equal (ratio, offset) on one axis."""
    order = sorted(range(len(maps)),
                   key=lambda i: (float(maps[i].offset(axis)),
                                  float(maps[i].ratio(axis))))
    classes = []
    for i in order:
        m = maps[i]
        for cls in classes:
            if _compare(cls[0], m.ratio(axis), exact) == 0 and \
                    _compare(cls[1], m.offset(axis), exact) == 0:
                cls[2].append(i)
                break
        else:
            classes.append([m.ratio(axis), m.offset(axis), [i]])
    return tuple(ProjectionClass(c[0], c[1], tuple(sorted(c[2])))
                 for c in classes)


def _apart(spans, exact):
    """Are the open intervals (o, o + r), given as (o, r) pairs, pairwise
    disjoint?"""
    return all(_compare(o + r, p, exact) <= 0 or _compare(p + s, o, exact) <= 0
               for (o, r), (p, s) in itertools.combinations(spans, 2))


def _axis_ssc(classes, exact):
    """Strong separation on an axis: the first-level cylinders of the
    *projected attractor* are pairwise disjoint as compact intervals.

    The projected attractor's convex hull [a, b] has endpoints at fixed
    points of the extreme class maps (a = min_c o_c/(1-r_c), likewise b with
    max), so the class-c cylinder is [o_c + r_c*a, o_c + r_c*b].  This is
    strictly finer than testing the full intervals [o, o+r]: classes whose
    full intervals touch can still carry disjoint attractor pieces when the
    attractor does not fill its hull.
    """
    lo = min(c.offset / (1 - c.ratio) for c in classes)
    hi = max(c.offset / (1 - c.ratio) for c in classes)
    ends = [(c.offset + c.ratio * lo, c.offset + c.ratio * hi)
            for c in classes]
    return all(_compare(a1, b0, exact) < 0 or _compare(b1, a0, exact) < 0
               for (a0, a1), (b0, b1) in itertools.combinations(ends, 2))


def validate(maps) -> CarpetSystem:
    """Build a CarpetSystem from an iterable of DiagonalMap (or 4-tuples),
    every entry normalised by ``as_number``.

    Raises InvalidSystem for fewer than two maps, any entry ``as_number``
    rejects, or any ratio outside (0,1).
    Overlapping images or missing alignment only demote the class to
    DiagonalOnly.  Images extending outside the unit square produce a warning,
    not an error.
    """
    norm = []
    for m in maps:
        if isinstance(m, DiagonalMap):
            m = (m.r1, m.r2, m.d1, m.d2)
        norm.append(DiagonalMap(*[as_number(v) for v in m]))
    if len(norm) < 2:
        raise InvalidSystem("need at least two maps, got %d" % len(norm))
    for m in norm:
        for r in (m.r1, m.r2):
            if not 0 < float(r) < 1:
                raise InvalidSystem("ratio %r outside (0, 1)" % (r,))
    norm = tuple(norm)
    exact = all(m.exact for m in norm)

    warnings = ["map %d image extends outside the unit square" % i
                for i, m in enumerate(norm)
                if any(_compare(m.offset(j), 0, exact) < 0
                       or _compare(m.offset(j) + m.ratio(j), 1, exact) > 0
                       for j in (1, 2))]

    columns = _group_axis(norm, 1, exact)
    rows = _group_axis(norm, 2, exact)

    disjoint = all(_apart([(a.d1, a.r1), (b.d1, b.r1)], exact)
                   or _apart([(a.d2, a.r2), (b.d2, b.r2)], exact)
                   for a, b in itertools.combinations(norm, 2))
    col_aligned = _apart([(c.offset, c.ratio) for c in columns], exact)
    row_aligned = _apart([(c.offset, c.ratio) for c in rows], exact)
    system = CarpetSystem(
        maps=norm, klass=DIAGONAL_ONLY, columns=columns, rows=rows,
        eta1_ssc=_axis_ssc(columns, exact), eta2_ssc=_axis_ssc(rows, exact),
        eta1_aligned=col_aligned, eta2_aligned=row_aligned,
        orientation=tuple(_compare(m.r1, m.r2, exact) for m in norm),
        warnings=tuple(warnings))
    axes = long_axes(system)
    if disjoint and len(axes) == 1 and system.aligned(*axes):
        return replace(system, klass=GATZOURAS_LALLEY)
    if disjoint and col_aligned and row_aligned:
        return replace(system, klass=BARANSKI)
    return system


def long_axes(system: CarpetSystem) -> tuple:
    """The axes along which some map is longer than across it, or (1, 2)
    when every map is square: the axes j whose P_j = {chi_j <= chi_j'} has
    interior.  The class, the dimensions, the split test and tangent clouds
    all read their axes here."""
    axes = tuple(j for j, sign in ((1, 1), (2, -1))
                 if sign in system.orientation)
    return axes or (1, 2)


def system_from_config(config: dict) -> CarpetSystem:
    """Parse the carpet config JSON object: {"maps": [{"r1": ..., ...}]},
    scalars either numbers or exact rationals as [num, den]."""
    if not isinstance(config, dict) or "maps" not in config:
        raise InvalidSystem("config must be an object with a 'maps' list")
    entries = config["maps"]
    if not isinstance(entries, list):
        raise InvalidSystem("'maps' must be a list")
    maps = []
    for e in entries:
        try:
            maps.append((e["r1"], e["r2"], e["d1"], e["d2"]))
        except (KeyError, TypeError) as exc:
            raise InvalidSystem("bad map entry %r" % (e,)) from exc
    return validate(maps)


def system_to_config(system: CarpetSystem) -> dict:
    """Inverse of system_from_config; Fractions go out as [num, den]."""
    def dump(v):
        if isinstance(v, Fraction):
            return [v.numerator, v.denominator]
        return float(v)

    return {"maps": [{"r1": dump(m.r1), "r2": dump(m.r2),
                      "d1": dump(m.d1), "d2": dump(m.d2)}
                     for m in system.maps]}


@dataclass(frozen=True)
class EventuallyPeriodicWord:
    """gamma = preperiod . period^infinity over map indices."""
    preperiod: tuple
    period: tuple

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise InvalidSystem("word needs a non-empty period")
        for i in self.preperiod + self.period:
            if type(i) is not int or i < 0:
                raise InvalidSystem("bad letter %r" % (i,))

    def letter(self, n: int) -> int:
        if n < len(self.preperiod):
            return self.preperiod[n]
        return self.period[(n - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> tuple:
        return tuple(self.letter(t) for t in range(n))

    def check_alphabet(self, system: CarpetSystem):
        for i in self.preperiod + self.period:
            if i >= len(system.maps):
                raise IndexError("letter %d outside alphabet of size %d"
                                 % (i, len(system.maps)))


@dataclass(frozen=True)
class ProbabilityVector:
    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(v < 0 for v in vals):
            raise InvalidSystem("negative probability")
        if abs(math.fsum(vals) - 1.0) > _TOL:
            raise InvalidSystem("probabilities sum to %r, not 1"
                                % math.fsum(vals))

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def column_word(system: CarpetSystem, word, axis: int = 1) -> tuple:
    """Project a word of map indices to its class ids on the given axis."""
    lookup = system.class_index(axis)
    try:
        return tuple(lookup[i] for i in word)
    except KeyError as exc:
        raise IndexError("letter outside alphabet: %r" % (exc.args[0],)) from exc


def classify_word(system: CarpetSystem, gamma: EventuallyPeriodicWord):
    """Asymptotic Lyapunov ratio class of gamma.

    Returns (omega, gamma_inf) where gamma_inf = chi_1(q)/chi_2(q), with
    chi_j = -sum_i q_i log r_j,i over the period's letter frequencies q,
    and omega is "Omega1" when the ratio is < 1 (contraction is faster in
    the vertical), "Omega2" when > 1 and "Omega0" on a tie.  Exact systems
    compare prod_i r1_i^n_i with prod_i r2_i^n_i over the letter counts n
    in Fractions, so only a true tie is one; float systems call
    |gamma_inf - 1| <= 1e-12 a tie.
    """
    gamma.check_alphabet(system)
    counts, n = Counter(gamma.period), len(gamma.period)
    chi1 = -math.fsum(c / n * math.log(float(system.maps[i].r1))
                      for i, c in counts.items())
    chi2 = -math.fsum(c / n * math.log(float(system.maps[i].r2))
                      for i, c in counts.items())
    ratio = chi1 / chi2
    if system.exact:
        a = math.prod(system.maps[i].r1 ** c for i, c in counts.items())
        b = math.prod(system.maps[i].r2 ** c for i, c in counts.items())
    else:
        a, b = 1.0, ratio
    order = _compare(a, b, system.exact)
    if order == 0:
        return "Omega0", ratio
    return ("Omega1" if order > 0 else "Omega2"), ratio
