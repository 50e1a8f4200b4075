"""Polynomial charts of projective subvarieties and isotropy certificates.

A chart is a polynomial map from d parameters into the vector space W;
its image projects to a d-dimensional locus in the projectivization.
The affine tangent space of the cone at a chart point is spanned by the
chart value together with the d coordinate partials (the frame), and a
chart is isotropic for a form when the form vanishes identically on
every pair of frame vectors - proved here as a polynomial identity,
never by sampling.

A chart evaluates in Python integers.  On first use it compiles each
frame row (the coordinates, then each partial) to integer coefficients
over one denominator; at a rational point p_i = n_i / d_i every
coordinate and every partial is then read off one table of the powers
n_i^e d_i^(deg_i - e), deg_i the chart's maximum degree in variable i,
as integer rows with one positive scale each (frame_integers), which
the frame reduction takes as they are.  The wedge of two frame rows is
taken in one place, frame_wedges, on the compiled rows as integer
polynomials: the form's construction (omega_builder) takes it at every
index pair, the isotropy certificate at the form's nonzero pairs, each
vector contracted by OmegaForm.on_wedge.  So the certificate shares
that kernel and on_wedge with the construction; its independent checks
are the Poly-arithmetic references of the test suite.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from math import lcm, prod
from operator import add

from .linalg import combine_rows, integer_rref, pair_count
from .metabelian import OmegaForm
from .polynomials import Poly, check_variable_names, parse_poly
from .scalars import Q, as_integers, from_integers, parse_rational, qstr


class FrameDegenerate(Exception):
    """The chart frame dropped rank at a sample point."""


@dataclass(frozen=True, eq=False)
class VarietyChart:
    label: str
    param_dim: int
    ambient_dim: int
    coords: tuple
    partials: tuple

    @cached_property
    def _compiled(self):
        """(degrees, rows): the chart's maximum degree in each variable, and
        per frame row (the coordinates, then each partial) its denominator
        and, per coordinate, its terms as (integer coefficient, exponents)."""
        degrees = tuple(max(p.degree_in(i) for p in self.coords) for i in range(self.param_dim))
        rows = []
        for polys in (self.coords, *self.partials):
            den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
            terms = tuple(
                tuple((c.numerator * (den // c.denominator), e) for e, c in p.terms.items())
                for p in polys
            )
            rows.append((den, terms))
        return degrees, tuple(rows)

    def frame_wedges(self, a, b, pairs):
        """The wedge of frame rows a and b (0 the coordinates, then each
        partial) at the index pairs (k, i, j), k the index of the pair
        i < j: its monomial coefficient vectors, sparse {k: integer}, as
        (monomial, vector) by increasing monomial, zero entries and empty
        vectors dropped.  Each vector is the symbolic wedge's times the
        rows' positive denominators."""
        (_, row_a), (_, row_b) = self._compiled[1][a], self._compiled[1][b]
        by_monomial = {}
        for k, i, j in pairs:
            for sign, left, right in ((1, row_a[i], row_b[j]), (-1, row_a[j], row_b[i])):
                for c, e in left:
                    for d, f in right:
                        vec = by_monomial.setdefault(tuple(map(add, e, f)), {})
                        vec[k] = vec.get(k, 0) + sign * c * d
        sparse = (
            (e, {k: x for k, x in vec.items() if x}) for e, vec in sorted(by_monomial.items())
        )
        return [(e, vec) for e, vec in sparse if vec]

    def _integer_rows(self, point, rows):
        """The compiled rows at a rational point, as (ints, scale) with
        row == ints / scale: over D = prod d_i^deg_i a monomial p^e reads
        prod (n_i^e_i d_i^(deg_i - e_i)) / D."""
        point = tuple(point)
        if len(point) != self.param_dim:
            raise ValueError("wrong number of values")
        degrees, _ = self._compiled
        tables, scale = [], 1
        for x, deg in zip(point, degrees):
            n, d = x.numerator, x.denominator
            tables.append([n**e * d ** (deg - e) for e in range(deg + 1)])
            scale *= d**deg
        out = []
        for den, polys in rows:
            ints = []
            for terms in polys:
                total = 0
                for c, exps in terms:
                    for table, e in zip(tables, exps):
                        c *= table[e]
                    total += c
                ints.append(total)
            out.append((ints, den * scale))
        return out

    def frame_integers(self, point):
        """The frame at a rational point, the chart value and then the d
        partials, as integer rows with one positive scale each."""
        return self._integer_rows(point, self._compiled[1])

    def evaluate(self, point):
        [value] = self._integer_rows(point, self._compiled[1][:1])
        return tuple(from_integers(*value))


# Every builtin has at most 10.  With 32, building the form took 0.01 s for
# the moment curve (1, t, ..., t^31) and 2.0-2.4 s for the spinor variety
# S6 (d = 15), on a 2-vCPU Xeon VM under CPython 3.11.
MAX_COORDINATES = 32


def make_chart(label, coords) -> VarietyChart:
    coords = tuple(coords)
    if not coords:
        raise ValueError("chart needs at least one coordinate")
    if len(coords) > MAX_COORDINATES:
        raise ValueError(f"chart has {len(coords)} coordinates, more than {MAX_COORDINATES}")
    d = coords[0].nvars
    if d == 0:
        raise ValueError("chart needs at least one variable")
    if any(p.nvars != d for p in coords):
        raise ValueError("chart coordinates must share one parameter list")
    if d >= len(coords):  # then no d+1 frame vectors are independent
        raise ValueError(f"chart has {d} variables, not fewer than its {len(coords)} coordinates")
    partials = tuple(tuple(p.diff(a) for p in coords) for a in range(d))
    return VarietyChart(label, d, len(coords), coords, partials)


def affine_tangent_frame(frame, point):
    """Frame of the cone's tangent space at point, chart value plus all
    partials, given as VarietyChart.frame_integers gives it, as (rows,
    pivots) of its one leftmost-pivot reduction, the rows sparse integer
    pivot rows as integer_rref gives them: reduced row r reads
    row[k] / row[pivots[r]] at column k and zero where k is absent.

    Raises FrameDegenerate unless the d+1 frame vectors are independent.
    """
    rows, pivots = integer_rref([ints for ints, _ in frame], len(frame[0][0]))
    if len(pivots) != len(frame):
        raise FrameDegenerate(f"frame rank below {len(frame)} at {tuple(map(qstr, point))}")
    return rows, pivots


def in_tangent_span(tangent, vector) -> bool:
    """Whether a W-vector lies in the span of a reduced tangent frame,
    (rows, pivots) as affine_tangent_frame gives it: whether it is the
    combination of the reduced rows with its own entries at their pivots,
    compared in integers."""
    rows, pivots = tangent
    ints, _ = as_integers(vector)
    sums, den = combine_rows(rows, pivots, [ints[p] for p in pivots], len(ints))
    return all(s == den * v for s, v in zip(sums, ints))


@dataclass(frozen=True)
class IsotropyWitness:
    pair: tuple
    point: tuple
    values: tuple

    def describe(self):
        point = ",".join(qstr(c) for c in self.point)
        values = ",".join(qstr(c) for c in self.values)
        return f"frame pair {self.pair} at point ({point}) maps to ({values})"


@dataclass(frozen=True)
class IsotropyCertificate:
    proven: bool
    pairs_checked: int
    witness: IsotropyWitness | None


def _compositions(n, total, bound):
    """The tuples of n entries in 0..bound that sum to total, in ascending
    lexicographic order, generated lazily."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(max(0, total - bound * (n - 1)), min(bound, total) + 1):
        for rest in _compositions(n - 1, total - first, bound):
            yield (first, *rest)


def _grid_by_sum(nvars, bound):
    """Points of {0..bound}^nvars, by coordinate sum and then lexicographically,
    generated lazily."""
    for total in range(nvars * bound + 1):
        yield from _compositions(nvars, total, bound)


def certify_isotropic(chart: VarietyChart, omega: OmegaForm) -> IsotropyCertificate:
    """Prove the form vanishes identically on all frame pairs, or exhibit
    a parameter point where it does not: the first point of _grid_by_sum
    over {0..degree}^d, degree the pair's largest exponent, where its form
    is nonzero (that grid holds one).  Runs in integers on the chart's
    frame wedges at the form's nonzero pairs, contracted by
    OmegaForm.on_wedge and each over the rows' positive denominators."""
    if omega.dim_w != chart.ambient_dim:
        raise ValueError("form and chart have different ambient dimension")
    pairs = [(k, i, j) for k, i, j, _ in omega.terms]
    for count, (a, b) in enumerate(itertools.combinations(range(chart.param_dim + 1), 2), 1):
        wedges = chart.frame_wedges(a, b, pairs)
        if not (values := [(e, ints) for e, vec in wedges if any(ints := omega.on_wedge(vec))]):
            continue
        for point in _grid_by_sum(chart.param_dim, max(x for e, _ in values for x in e)):
            terms = [(prod(map(pow, point, e)), ints) for e, ints in values]
            totals = [sum(m * ints[c] for m, ints in terms) for c in range(omega.dim_u)]
            if any(totals):
                # at an integer point each row's scale is its denominator
                frame = chart.frame_integers(point)
                scale = frame[a][1] * frame[b][1] * omega.den
                witness_values = tuple(Q(t, scale) for t in totals)
                witness = IsotropyWitness((a, b), tuple(map(Q, point)), witness_values)
                return IsotropyCertificate(False, count, witness)
        raise AssertionError("nonzero polynomial vanished on a full grid")
    return IsotropyCertificate(True, pair_count(chart.param_dim + 1), None)


def _degree_exponents(nvars, degree):
    """Exponent tuples of total degree == degree, descending lex order."""
    return list(_compositions(nvars, degree, degree))[::-1]


def veronese_chart(r, k, label=None) -> VarietyChart:
    """Degree-k monomial chart of (r-1)-dimensional projective space.

    Coordinates are all degree-k monomials of (1, p_1, ..., p_{r-1}).
    """
    if r < 2 or k < 1:
        raise ValueError("need r >= 2 and k >= 1")
    d = r - 1
    coords = []
    for exps in _degree_exponents(r, k):
        term = {tuple(exps[1:]): Q(1)}
        coords.append(Poly(d, term))
    return make_chart(label or f"veronese-{r}-{k}", coords)


def compose_veronese3(chart: VarietyChart, label=None) -> VarietyChart:
    """Compose a chart with the third Veronese map of its ambient space."""
    n = chart.ambient_dim
    coords = [Poly(n, {e: 1}).compose(chart.coords) for e in _degree_exponents(n, 3)]
    return make_chart(label or f"veronese3-of-{chart.label}", coords)


_BUILTIN_BUILDERS = {
    "veronese-2-3": lambda: (veronese_chart(2, 3, "veronese-2-3"), None),
    "veronese-2-4": lambda: (veronese_chart(2, 4, "veronese-2-4"), None),
    "veronese-3-3": lambda: (veronese_chart(3, 3, "veronese-3-3"), None),
    "flat-conic": lambda: (veronese_chart(2, 2, "flat-conic"), None),
    "flat-linear": lambda: (veronese_chart(3, 1, "flat-linear"), None),
    "veronese3-of-conic": lambda: (
        compose_veronese3(veronese_chart(2, 2), "veronese3-of-conic"),
        None,
    ),
    "nonisotropic-cubic": lambda: (
        veronese_chart(2, 3, "nonisotropic-cubic"),
        OmegaForm.from_entries(4, 1, [(0, 1, (Q(1),))]),
    ),
}


def builtin_names():
    return sorted(_BUILTIN_BUILDERS)


def builtin_chart(name):
    """Catalog entry: (chart, explicit form or None when derived)."""
    try:
        builder = _BUILTIN_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}; known: {', '.join(builtin_names())}")
    return builder()


_JSON_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _json_value(value, name, kind):
    """value, which must be of the given JSON type (a boolean is not an integer)."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {_JSON_TYPE_NAMES[kind]}, got {json.dumps(value)}")
    return value


def _json_field(data, key, kind):
    if key not in data:
        raise ValueError(f"{key} is missing")
    return _json_value(data[key], key, kind)


def chart_from_json(data) -> VarietyChart:
    """Chart from {label, variables, coordinates}; other keys are ignored."""
    _json_value(data, "fixture", dict)
    label = _json_field(data, "label", str)
    variables = _json_field(data, "variables", list)
    if any(type(v) is not str for v in variables) or len(set(variables)) != len(variables):
        raise ValueError(f"variables must be distinct strings, got {json.dumps(variables)}")
    check_variable_names(variables)
    coordinates = _json_field(data, "coordinates", list)
    if any(type(c) is not str for c in coordinates):
        raise ValueError(f"coordinates must be strings, got {json.dumps(coordinates)}")
    return make_chart(label, [parse_poly(text, variables) for text in coordinates])


def omega_from_json(dim_w, data) -> OmegaForm:
    """Form from {dimU, entries: [{i, j, uVector}]}.

    A form's values span at most dim Lambda^2 W dimensions, so a larger
    dimU is rejected before any entry is read.
    """
    _json_value(data, "omega", dict)
    dim_u = _json_field(data, "dimU", int)
    if not 0 <= dim_u <= pair_count(dim_w):
        raise ValueError(f"dimU must lie in 0..{pair_count(dim_w)}, got {dim_u}")
    entries = []
    for n, entry in enumerate(_json_value(data.get("entries", []), "entries", list)):
        _json_value(entry, f"entries[{n}]", dict)
        vec = [_scalar_from_json(x) for x in _json_field(entry, "uVector", list)]
        entries.append((_json_field(entry, "i", int), _json_field(entry, "j", int), vec))
    return OmegaForm.from_entries(dim_w, dim_u, entries)


def _scalar_from_json(x):
    if type(x) in (str, int):
        return parse_rational(x) if type(x) is str else Q(x)
    raise ValueError(f"uVector entries must be rationals, got {json.dumps(x)}")
