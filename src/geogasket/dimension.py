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
    lo = 0.0
    f_lo = value(lo)  # k - 1 > 0
    if f_lo <= 0:
        return MoranSolution(s=0.0, residual=abs(f_lo))
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

    Forms:
      - ``power(alpha)``: phi(y) = y**alpha, alpha > 0
      - ``neglog_power(beta)``: phi(y) = (-log y)**(-beta) on (0, 1)
      - ``logpower(n)``: neglog_power with beta = 1 + 2/(2n + 1)
      - ``table(ys, values)``: increasing piecewise-linear interpolant with
        power-law extrapolation below the smallest node

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
            # exp(-alpha * L) evaluated stably for huge L
            self._fn_neglog = lambda L: math.exp(-alpha * L) if alpha * L < 745 else 0.0
            self.domain_hi = math.inf
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
                out = np.zeros_like(y)
                pos = y > 0
                out[pos] = np.power(-np.log(y[pos]), -beta)
                return out

            self._fn = fn
            self._fn_neglog = lambda L: L ** (-beta) if L > 0 else math.inf
            self.domain_hi = 1.0
        elif form == "table":
            ys = json_numbers(params["ys"], (None,), "gauge.ys")
            vals = json_numbers(params["values"], ys.shape, "gauge.values")
            if len(ys) < 2 or np.any(np.diff(ys) <= 0):
                raise DomainError("table gauge needs at least two increasing nodes")
            if np.any(np.diff(vals) < 0) or np.any(vals <= 0):
                raise DomainError("table gauge values must be positive nondecreasing")
            # power-law extrapolation below the smallest node
            expo = math.log(vals[1] / vals[0]) / math.log(ys[1] / ys[0]) if vals[1] > vals[0] else 0.0

            def fn(y):
                y = np.asarray(y, dtype=float)
                out = np.interp(y, ys, vals)
                below = (y < ys[0]) & (y > 0)
                out = np.where(below, vals[0] * np.power(y / ys[0], expo), out)
                return np.where(y <= 0, 0.0, out)

            self._fn = fn
            self._fn_neglog = lambda L: float(fn(np.array([math.exp(-L) if L < 745 else 0.0]))[0])
            # interp extends with the last value above the final node
            self.domain_hi = math.inf

    def __call__(self, y):
        scalar = np.isscalar(y)
        out = self._fn(np.atleast_1d(np.asarray(y, dtype=float)))
        return float(out[0]) if scalar else out

    def eval_neglog(self, L: float) -> float:
        """phi(exp(-L)); stable for arguments far below the underflow line."""
        return float(self._fn_neglog(L))

    def check_valid(self, y_max: float, grid: int = 64):
        """Probe monotonicity and the vanishing limit at 0+ on a grid."""
        if y_max >= self.domain_hi:
            raise DomainError(
                f"gauge of form {self.form!r} is only defined below {self.domain_hi}"
            )
        ys = np.geomspace(1e-12, y_max, grid)
        vals = self(ys)
        if np.any(np.diff(vals) < -1e-15):
            raise DomainError("gauge is not increasing on the probe grid")
        if not vals[0] < vals[-1]:
            raise DomainError("gauge does not decrease toward 0 on the probe grid")


@dataclass(frozen=True)
class GaugeAdmissibility:
    admissible: bool
    integral: float
    doublings: int
    extrapolated: bool = False


def gauge_admissible(gauge: GaugeSpec, a: float, nu: float, tail_tol: float = 1e-10, max_doublings: int = 40) -> GaugeAdmissibility:
    """Numerically decide whether the gauge's decay integral converges.

    Integrates x -> phi(a nu^x) on [1, X] with X doubling.  The integral is
    admissible when the doubling increments fall below ``tail_tol``, or
    when after the doubling budget they still decay geometrically (the tail
    is then summed by geometric extrapolation).  Increments that keep the
    partial sums growing across the budget (ratio ~ 1 or above) mean
    divergence.
    """
    from scipy.integrate import quad  # here, so that importing the CLI does not load scipy

    if a <= 0 or not (0.0 < nu < 1.0):
        raise DomainError("need a > 0 and nu in (0, 1)")
    gauge.check_valid(a * nu)

    abs_log_nu = -math.log(nu)
    log_a = math.log(a)

    def integrand(x):
        # phi(a nu^x) without underflow: the argument's -log is affine in x
        return gauge.eval_neglog(x * abs_log_nu - log_a)

    total, _ = quad(integrand, 1.0, 2.0, limit=200)
    x_hi = 2.0
    piece_prev = total
    ratios = []
    for doubling in range(1, max_doublings + 1):
        piece, _ = quad(integrand, x_hi, 2 * x_hi, limit=200)
        total += piece
        x_hi *= 2
        if piece < tail_tol:
            return GaugeAdmissibility(admissible=True, integral=total, doublings=doubling)
        if piece_prev > 0:
            ratios.append(piece / piece_prev)
        piece_prev = piece
    recent = float(np.median(ratios[-5:])) if ratios else math.inf
    if recent < 0.995:
        tail = piece_prev * recent / (1.0 - recent)
        return GaugeAdmissibility(
            admissible=True,
            integral=total + tail,
            doublings=max_doublings,
            extrapolated=True,
        )
    return GaugeAdmissibility(admissible=False, integral=total, doublings=max_doublings)


@dataclass(frozen=True)
class ProductBounds:
    upper: float
    lower: float
    terms_used: int
    tail_bound: float


def product_bounds(gauge: GaugeSpec, nu: float, diam: float, max_terms: int = 200000) -> ProductBounds:
    """Convergent bounds for prod(1 +/- phi(nu^i diam)).

    Terms are multiplied until they fall below 1e-16 or the budget runs
    out; the remaining tail is bounded through the decay integral, and the
    reported values bracket the true products (log(1+x) <= x and
    log(1-x) >= -2x for x <= 1/2).
    """
    from scipy.integrate import quad  # here, so that importing the CLI does not load scipy

    if not (0.0 < nu < 1.0) or diam <= 0:
        raise DomainError("need nu in (0, 1) and a positive diameter")
    first = float(gauge(diam))
    if first >= 1.0:
        raise DomainError(
            f"phi(diam) = {first:.3g} >= 1: the lower product degenerates"
        )
    log_upper = 0.0
    log_lower = 0.0
    i = 0
    term = first
    while i < max_terms and term >= 1e-16:
        log_upper += math.log1p(term)
        log_lower += math.log1p(-term)
        i += 1
        term = float(gauge(diam * nu**i))
    # tail: sum_{j >= i} phi(diam nu^j) <= integral_{i-1}^inf phi(diam nu^x) dx
    abs_log_nu = -math.log(nu)
    log_diam = math.log(diam)

    def integrand(x):
        return gauge.eval_neglog(x * abs_log_nu - log_diam)

    tail = 0.0
    x_lo = max(i - 1, 1)
    x_hi = 2.0 * x_lo
    for _ in range(64):
        piece, _ = quad(integrand, x_lo, x_hi, limit=200)
        tail += piece
        x_lo = x_hi
        x_hi *= 2
        if piece < 1e-16:
            break
    upper = math.exp(log_upper + tail)
    lower = math.exp(log_lower - 2.0 * tail)
    return ProductBounds(upper=upper, lower=lower, terms_used=i, tail_bound=tail)


# -- estimators ---------------------------------------------------------------


def hausdorff_upper_sum(system: TriangleSystem, s: float, depth: int) -> float:
    """Sum of cell diameters to the power s at one level (upper witness)."""
    if depth == 0:
        return system.base.diam**s
    diams = system.level_diams(depth)
    return float(np.sum(diams**s))


@dataclass
class BoxDimensionEstimate:
    slope: float
    stderr: float
    confidence_band: tuple
    levels_used: list
    dropped_levels: list
    records: list


def _fit_loglog(xs, ys):
    coef = np.polyfit(xs, ys, 1)
    slope, intercept = float(coef[0]), float(coef[1])
    residuals = ys - (slope * xs + intercept)
    dof = max(len(xs) - 2, 1)
    sigma2 = float(np.sum(residuals**2)) / dof
    sxx = float(np.sum((xs - np.mean(xs)) ** 2))
    stderr = math.sqrt(sigma2 / sxx) if sxx > 0 else math.inf
    return slope, stderr, residuals


def box_dimension_estimate(system: TriangleSystem, n1: int, n2: int) -> BoxDimensionEstimate:
    """Least-squares slope of log(count) against -log(max cell diameter).

    Counts are the 3^n cell covers (an upper cover witness).  The coarsest
    level is dropped once if its residual exceeds three times the median
    residual (pre-asymptotic bias).
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

    slope, stderr, residuals = _fit_loglog(xs, ys)
    dropped = []
    med = float(np.median(np.abs(residuals)))
    if med > 0 and abs(residuals[0]) > 3.0 * med:
        dropped = [ns[0]]
        ns = ns[1:]
        xs, ys, eps, counts = xs[1:], ys[1:], eps[1:], counts[1:]
        slope, stderr, _ = _fit_loglog(xs, ys)
    records = [CoverRecord(epsilon=float(e), count=int(c)) for e, c in zip(eps, counts)]
    return BoxDimensionEstimate(
        slope=slope,
        stderr=stderr,
        confidence_band=(slope - 2 * stderr, slope + 2 * stderr),
        levels_used=ns,
        dropped_levels=dropped,
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
