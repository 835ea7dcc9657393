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
_GAUGE_PARAMS = {"power": ("alpha",), "neglog_power": ("beta",), "logpower": ("n",)}


class GaugeSpec:
    """A gauge function phi controlling deviation from strict similarity.

    Forms, each with its decay integral T(c) = integral over [X, inf) of
    phi(a nu^x) dx, where L = |log nu| and c = X L - log a = -log(a nu^X):
      - ``power(alpha)``: phi(y) = y**alpha, alpha > 0;
        T = exp(-alpha c) / (alpha L)
      - ``neglog_power(beta)``: phi(y) = (-log y)**(-beta) on (0, 1);
        T = c**(1 - beta) / ((beta - 1) L) for beta > 1, divergent for
        beta <= 1, and a ``DomainError`` unless c > 0
      - ``logpower(n)``: neglog_power with beta = 1 + 2/(2n + 1)

    The parameters are read as a scene's ``gauge`` object is: the form's
    parameter, a JSON number (``n`` an integer), and no other key.
    ``DomainError`` names the parameter at fault.  ``params`` holds the
    exponent as a float, ``beta`` for both log forms.
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
            self.params["alpha"] = alpha
        elif form == "logpower":
            n = json_integer(params["n"], "gauge.n", 1)
            self.params["beta"] = 1.0 + 2.0 / (2 * n + 1)
        else:
            beta = float(json_numbers(params["beta"], (), "gauge.beta"))
            if not beta > 0:
                raise DomainError("neglog_power gauge needs beta > 0")
            self.params["beta"] = beta

    def tail(self, a: float, nu: float, x: float) -> float:
        """The decay integral over [x, inf) of phi(a nu^t) dt, in closed form."""
        L = -math.log(nu)
        c = x * L - math.log(a)
        if self.form == "power":
            alpha = self.params["alpha"]
            return math.exp(-alpha * c) / (alpha * L)
        if not c > 0:
            raise DomainError(f"gauge of form {self.form!r} is only defined below 1")
        beta = self.params["beta"]
        return c ** (1.0 - beta) / ((beta - 1.0) * L) if beta > 1 else math.inf


@dataclass(frozen=True)
class GaugeAdmissibility:
    admissible: bool
    integral: float


def gauge_admissible(gauge: GaugeSpec, a: float, nu: float) -> GaugeAdmissibility:
    """The gauge's decay integral over x >= 1 of phi(a nu^x); admissible when finite."""
    # accepting comparisons, so that NaN and inf fail them
    if not (0.0 < a < math.inf and 0.0 < nu < 1.0):
        raise DomainError("need a in (0, inf) and nu in (0, 1)")
    integral = gauge.tail(a, nu, 1.0)
    return GaugeAdmissibility(admissible=math.isfinite(integral), integral=integral)


# -- estimators ---------------------------------------------------------------


def hausdorff_upper_sum(system: TriangleSystem, s: float, depth: int) -> float:
    """Sum of cell diameters to the power s at one level (upper witness)."""
    return float(np.sum(system.level(depth).diams ** s))


@dataclass
class BoxDimensionEstimate:
    slope: float
    stderr: float
    confidence_band: tuple
    levels_used: list
    records: list


def box_dimension_estimate(system: TriangleSystem, n1: int, n2: int) -> BoxDimensionEstimate:
    """Least-squares slope of log(count) against -log(max cell diameter).

    Counts are the level-n cell covers (an upper cover witness).
    """
    if n2 - n1 < 3:
        raise DomainError("need at least four levels (n2 - n1 >= 3)")
    if not (0 <= n1 < n2 <= system.depth):
        raise DomainError("levels must lie within the stored system depth")
    ns = list(range(n1, n2 + 1))
    eps = np.array([float(np.max(system.level(n).diams)) for n in ns])
    counts = np.array([float(len(system.level(n))) for n in ns])
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
