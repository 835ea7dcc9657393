"""Similarity dimension machinery over triangle systems.

The root of sum(lambda_i^s) = 1 gives the similarity dimension; admissible
gauges quantify the allowed deviation from strict similarity; upper sums
and box-count regressions estimate the dimension of the limit set from
stored cell data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, json_integer, json_numbers, json_object
from .metric_core import CoverRecord
from .gasket import TriangleSystem


@dataclass(frozen=True)
class RatioList:
    """Contraction ratios of a similarity system; each in (0, 1)."""

    lambdas: tuple

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        if len(self.lambdas) == 0:
            raise DomainError("at least one ratio is required")
        if any(not (0.0 < x < 1.0) for x in self.lambdas):
            raise DomainError(f"ratios must lie in (0, 1): {self.lambdas}")

    @property
    def k(self) -> int:
        return len(self.lambdas)

    @property
    def lambda_max(self) -> float:
        return max(self.lambdas)


@dataclass(frozen=True)
class MoranSolution:
    s: float
    residual: float


def solve_moran(ratios) -> MoranSolution:
    """Unique s >= 0 with sum(lambda_i^s) = 1.

    Bisection on the strictly decreasing exponent sum, bracketed by
    [0, log k / log(1/lambda_max)] (at the upper end the sum is at most 1),
    then Newton polish to residual <= 1e-12.
    """
    if not isinstance(ratios, RatioList):
        ratios = RatioList(tuple(ratios))
    lams = np.array(ratios.lambdas)
    logs = np.log(lams)

    def value(s):
        return float(np.sum(np.exp(s * logs))) - 1.0

    k = ratios.k
    if k == 1:
        return MoranSolution(s=0.0, residual=0.0)
    hi = math.log(k) / math.log(1.0 / ratios.lambda_max)
    lo = 0.0  # value(0) = k - 1 > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if value(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, hi):
            break
    s = 0.5 * (lo + hi)
    for _ in range(12):
        f = value(s)
        fp = float(np.sum(logs * np.exp(s * logs)))
        step = f / fp
        s -= step
        if abs(step) <= 1e-16 * max(1.0, abs(s)):
            break
    residual = abs(value(s))
    if residual > 1e-12:
        raise DomainError(f"Moran solver stalled at residual {residual:.3e}")
    return MoranSolution(s=float(s), residual=residual)


# -- gauges ----------------------------------------------------------------


# The parameters of each gauge form, all required.
_GAUGE_PARAMS = {"power": ("alpha",), "neglog_power": ("beta",), "logpower": ("n",), "table": ("ys", "values")}


class GaugeSpec:
    """A gauge function phi controlling deviation from strict similarity.

    Forms, each with its decay integral T(c) = integral over [X, inf) of
    phi(a nu^x) dx, where L = |log nu| and c = X L - log a = -log(a nu^X):
      - ``power(alpha)``: phi(y) = y**alpha, alpha > 0;
        T = exp(-alpha c) / (alpha L)
      - ``neglog_power(beta)``: phi(y) = (-log y)**(-beta) on (0, 1), 0 at
        y <= 0 and a ``DomainError`` at y >= 1;
        T = c**(1 - beta) / ((beta - 1) L) for beta > 1, divergent for
        beta <= 1, and a ``DomainError`` unless c > 0
      - ``logpower(n)``: neglog_power with beta = 1 + 2/(2n + 1)
      - ``table(ys, values)``: nondecreasing piecewise-linear interpolant,
        constant above the last node, with the power law
        v0 (y/y0)**e through the first two nodes below the first node.
        T integrates phi(y) / (y L) over y <= a nu^X: a linear piece
        v + s (y - yk) gives (v - s yk) log(hi/lo) + s (hi - lo), and the
        power law gives v0 (y/y0)**e / e, divergent when e = 0

    The parameters are read as a scene's ``gauge`` object is: the form's
    parameters, each a JSON number (``n`` an integer, ``ys`` and ``values``
    lists of one length), and no other key.  ``DomainError`` names the
    parameter at fault.
    """

    def __init__(self, /, form: str, **params):
        if not (isinstance(form, str) and form in _GAUGE_PARAMS):
            raise DomainError(f"gauge.form must be one of {', '.join(_GAUGE_PARAMS)}, not {form!r}")
        json_object(params, _GAUGE_PARAMS[form], f"{form} gauge", optional=())
        self.form = form
        self.params = dict(params)
        if form == "power":
            alpha = float(json_numbers(params["alpha"], (), "gauge.alpha"))
            if not alpha > 0:
                raise DomainError("power gauge needs alpha > 0")
            self._fn = lambda y: np.power(y, alpha)
            self._tail = lambda c, L: math.exp(-alpha * c) / (alpha * L)
        elif form in ("neglog_power", "logpower"):
            if form == "logpower":
                n = json_integer(params["n"], "gauge.n", 1)
                beta = 1.0 + 2.0 / (2 * n + 1)
            else:
                beta = float(json_numbers(params["beta"], (), "gauge.beta"))
                if not beta > 0:
                    raise DomainError("neglog_power gauge needs beta > 0")
            self.params["beta"] = beta

            def fn(y):
                y = np.asarray(y, dtype=float)
                if np.any(y >= 1):
                    raise DomainError(f"gauge of form {form!r} is only defined below 1, not at {np.max(y):.6g}")
                out = np.zeros_like(y)
                pos = y > 0
                out[pos] = np.power(-np.log(y[pos]), -beta)
                return out

            def tail(c, L):
                if not c > 0:
                    raise DomainError(f"gauge of form {form!r} is only defined below 1")
                return c ** (1.0 - beta) / ((beta - 1.0) * L) if beta > 1 else math.inf

            self._fn = fn
            self._tail = tail
        elif form == "table":
            ys = json_numbers(params["ys"], (None,), "gauge.ys")
            vals = json_numbers(params["values"], ys.shape, "gauge.values")
            if len(ys) < 2 or np.any(np.diff(ys) <= 0):
                raise DomainError("table gauge needs at least two increasing nodes")
            if np.any(np.diff(vals) < 0) or np.any(vals <= 0):
                raise DomainError("table gauge values must be positive nondecreasing")
            # power-law extrapolation below the smallest node
            expo = math.log(vals[1] / vals[0]) / math.log(ys[1] / ys[0]) if vals[1] > vals[0] else 0.0
            # each piece [ys[k], ys[k+1]) as intercept + slope * y; constant past the last node
            slopes = np.append(np.diff(vals) / np.diff(ys), 0.0)
            intercepts = vals - slopes * ys
            his = np.append(ys[1:], math.inf)
            log_y0 = math.log(ys[0])

            def fn(y):
                y = np.asarray(y, dtype=float)
                out = np.interp(y, ys, vals)
                below = (y < ys[0]) & (y > 0)
                out = np.where(below, vals[0] * np.power(y / ys[0], expo), out)
                return np.where(y <= 0, 0.0, out)

            def tail(c, L):
                # the power law up to min(a nu^X, ys[0]), then each linear piece up to a nu^X
                low = vals[0] * math.exp(expo * min(-c - log_y0, 0.0)) / expo if expo > 0 else math.inf
                if -c <= log_y0:
                    return low / L
                y = math.exp(-c)
                lo, hi = np.minimum(ys, y), np.minimum(his, y)
                return (low + float(np.sum(intercepts * np.log(hi / lo) + slopes * (hi - lo)))) / L

            self._fn = fn
            self._tail = tail

    def __call__(self, y):
        scalar = np.isscalar(y)
        out = self._fn(np.atleast_1d(np.asarray(y, dtype=float)))
        return float(out[0]) if scalar else out

    def tail(self, a: float, nu: float, x: float) -> float:
        """The decay integral over [x, inf) of phi(a nu^t) dt, in closed form."""
        L = -math.log(nu)
        return float(self._tail(x * L - math.log(a), L))


@dataclass(frozen=True)
class GaugeAdmissibility:
    admissible: bool
    integral: float


def gauge_admissible(gauge: GaugeSpec, a: float, nu: float) -> GaugeAdmissibility:
    """The gauge's decay integral over x >= 1 of phi(a nu^x); admissible when finite."""
    if a <= 0 or not (0.0 < nu < 1.0):
        raise DomainError("need a > 0 and nu in (0, 1)")
    integral = gauge.tail(a, nu, 1.0)
    return GaugeAdmissibility(admissible=math.isfinite(integral), integral=integral)


@dataclass(frozen=True)
class ProductBounds:
    upper: float
    lower: float
    terms_used: int
    tail_bound: float


# Most factors product_bounds multiplies before the decay integral takes over.
MAX_TERMS = 200000


def product_bounds(gauge: GaugeSpec, nu: float, diam: float) -> ProductBounds:
    """Convergent bounds for prod(1 +/- phi(nu^i diam)).

    Terms are multiplied until they fall below 1e-16 or ``MAX_TERMS`` run
    out; the remaining tail is bounded through the decay integral, and the
    reported values bracket the true products (log(1+x) <= x and
    log(1-x) >= -2x for x <= 1/2).
    """
    if not (0.0 < nu < 1.0) or diam <= 0:
        raise DomainError("need nu in (0, 1) and a positive diameter")
    first = float(gauge(diam))
    # an accepting comparison, so that NaN fails it
    if not first < 1.0:
        raise DomainError(
            f"phi(diam) = {first:.3g} >= 1: the lower product degenerates"
        )
    log_upper = 0.0
    log_lower = 0.0
    i = 0
    term = first
    while i < MAX_TERMS and term >= 1e-16:
        log_upper += math.log1p(term)
        log_lower += math.log1p(-term)
        i += 1
        term = float(gauge(diam * nu**i))
    # phi(diam nu^x) decreases in x, so sum_{j >= i} phi(diam nu^j) <= integral_{i-1}^inf
    tail = gauge.tail(diam, nu, i - 1)
    upper = math.exp(log_upper + tail)
    lower = math.exp(log_lower - 2.0 * tail)
    return ProductBounds(upper=upper, lower=lower, terms_used=i, tail_bound=tail)


# -- estimators ---------------------------------------------------------------


def hausdorff_upper_sum(system: TriangleSystem, s: float, depth: int) -> float:
    """Sum of cell diameters to the power s at one level (upper witness)."""
    return float(np.sum(system.level_diams(depth) ** s))


@dataclass
class BoxDimensionEstimate:
    slope: float
    stderr: float
    confidence_band: tuple
    levels_used: list
    records: list


def box_dimension_estimate(system: TriangleSystem, n1: int, n2: int) -> BoxDimensionEstimate:
    """Least-squares slope of log(count) against -log(max cell diameter).

    Counts are the 3^n cell covers (an upper cover witness).
    """
    if n2 - n1 < 3:
        raise DomainError("need at least four levels (n2 - n1 >= 3)")
    if not (0 <= n1 < n2 <= system.depth):
        raise DomainError("levels must lie within the stored system depth")
    ns = list(range(n1, n2 + 1))
    eps = np.array([float(np.max(system.level_diams(n))) for n in ns])
    counts = np.array([3.0**n for n in ns])
    xs = -np.log(eps)
    ys = np.log(counts)

    coef = np.polyfit(xs, ys, 1)
    slope, intercept = float(coef[0]), float(coef[1])
    residuals = ys - (slope * xs + intercept)
    sigma2 = float(np.sum(residuals**2)) / (len(xs) - 2)  # at least four levels
    sxx = float(np.sum((xs - np.mean(xs)) ** 2))
    stderr = math.sqrt(sigma2 / sxx) if sxx > 0 else math.inf
    records = [CoverRecord(epsilon=float(e), count=int(c)) for e, c in zip(eps, counts)]
    return BoxDimensionEstimate(
        slope=slope,
        stderr=stderr,
        confidence_band=(slope - 2 * stderr, slope + 2 * stderr),
        levels_used=ns,
        records=records,
    )


# -- report serialization -------------------------------------------------------


def dimension_report_csv(system: TriangleSystem, estimate: BoxDimensionEstimate) -> str:
    s = estimate.slope
    lines = ["epsilon,count,sum"]
    for n, rec in zip(estimate.levels_used, estimate.records):
        upper = hausdorff_upper_sum(system, s, n)
        lines.append(f"{rec.epsilon:.17g},{rec.count},{upper:.17g}")
    return "\n".join(lines) + "\n"
