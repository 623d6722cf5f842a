"""Statistical reduction: survival curves, decay-rate fits and
exponentiality diagnostics.  Pure functions over immutable sample arrays;
`SurvivalCurve.from_times` is the one reduction of first-passage times to
P(T > t) on a grid, and `SurvivalCurve.stderr` their one binomial error.

Error bars are closed forms, with no resampling.  The decay rate's is the
delta-method variance of the fitted slope (Efron & Tibshirani, *An
Introduction to the Bootstrap*, 1993, ch. 21) under the binomial law of the
survival counts, and a moment ratio's is its spread under the exponential
law of the fitted rate.

scipy is imported by the function that calls it, so that importing this
module (and starting a run) costs numpy only."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

REPORT_SCHEMA_VERSION = 1
CI_SIGMAS = 3.0      # standard errors of bands and Monte Carlo bound checks
N_ALIVE_FLOOR = 100  # alive trajectories a Monte Carlo fit point needs
MIN_POINTS = 5       # usable grid points a decay fit needs
MAX_MOMENT = 4       # largest moment order of the exponentiality report
KS_ALPHA = 0.05      # level of its Kolmogorov-Smirnov threshold


class FitError(ValueError):
    """Survival curve unusable for a decay fit."""


# ---------------------------------------------------------------------------
# survival curves
# ---------------------------------------------------------------------------

@dataclass
class SurvivalCurve:
    """P(tau > t) on a grid.  Monte Carlo curves carry counts and the raw
    hitting times; synthetic/oracle curves may carry log-survival directly
    (needed far in the tail where the probability underflows)."""

    t: np.ndarray
    estimate: np.ndarray | None = None
    n_alive: np.ndarray | None = None
    n_total: int | None = None
    censored_fraction: float = 0.0
    taus: np.ndarray | None = None
    hit: np.ndarray | None = None
    log_estimate: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        if self.estimate is None and self.log_estimate is None:
            raise ValueError("curve needs estimate or log_estimate")
        if self.estimate is not None:
            self.estimate = np.asarray(self.estimate, dtype=np.float64)
        if self.log_estimate is None:
            with np.errstate(divide="ignore"):
                self.log_estimate = np.log(self.estimate)
        else:
            self.log_estimate = np.asarray(self.log_estimate, dtype=np.float64)
            if self.estimate is None:
                self.estimate = np.exp(self.log_estimate)

    @staticmethod
    def from_times(t: Sequence[float], taus: np.ndarray,
                   hit: np.ndarray) -> "SurvivalCurve":
        """Curve of the first-passage times `taus` on the grid `t`, in its
        order; a time that is not a `hit` is alive at every grid time."""
        t = np.asarray(t, dtype=np.float64)
        n_alive = ((taus[None, :] > t[:, None]) | ~hit).sum(axis=1)
        return SurvivalCurve(t=t, estimate=n_alive / taus.size,
                             n_alive=n_alive, n_total=taus.size,
                             censored_fraction=float(1.0 - hit.mean()),
                             taus=taus, hit=hit)

    @staticmethod
    def from_log(t: Sequence[float], log_p: Sequence[float]) -> "SurvivalCurve":
        return SurvivalCurve(t=np.asarray(t), log_estimate=np.asarray(log_p))

    def stderr(self) -> np.ndarray:
        """Binomial standard error per grid point (zero for exact curves)."""
        if self.n_total is None:
            return np.zeros_like(self.t)
        p = self.estimate
        return np.sqrt(np.clip(p * (1 - p), 0.0, None) / self.n_total)

    def ci(self) -> tuple[np.ndarray, np.ndarray]:
        """Band of CI_SIGMAS standard errors around the estimate."""
        se = self.stderr()
        return (np.clip(self.estimate - CI_SIGMAS * se, 0.0, 1.0),
                np.clip(self.estimate + CI_SIGMAS * se, 0.0, 1.0))


# ---------------------------------------------------------------------------
# decay-rate fit
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    lambda_hat: float
    stderr: float
    window: tuple[float, float]
    r_squared: float
    n_alive_at_hi: int | None
    intercept: float

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "lambda_hat": self.lambda_hat,
            "stderr": self.stderr,
            "window": list(self.window),
            "r_squared": self.r_squared,
            "n_alive_at_hi": self.n_alive_at_hi,
            "intercept": self.intercept,
        }


def _wls_slope(t, y, w):
    """Weighted least-squares line through (t, y): slope, intercept, R^2,
    residual mean square, S_tt = sum_i w_i (t_i - tbar)^2 and the slope's
    weights c_i = w_i (t_i - tbar) / S_tt (the slope is sum_i c_i y_i)."""
    W = w.sum()
    tbar = (w * t).sum() / W
    ybar = (w * y).sum() / W
    stt = (w * (t - tbar) ** 2).sum()
    slope = (w * (t - tbar) * (y - ybar)).sum() / stt
    inter = ybar - slope * tbar
    resid = y - (inter + slope * t)
    ss_res = (w * resid**2).sum()
    ss_tot = (w * (y - ybar) ** 2).sum()
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return (slope, inter, r2, ss_res / max(1, t.size - 2), stt,
            w * (t - tbar) / stt)


def fit_decay(curve: SurvivalCurve) -> DecayFit:
    """Weighted least squares of log P(tau > t) against t.

    Usable points need positive survival and (for Monte Carlo curves) at
    least N_ALIVE_FLOOR trajectories alive.  Raises `FitError` when fewer
    than MIN_POINTS grid points are usable.  The window drops early points
    one at a time while MIN_POINTS remain and keeps the suffix with the
    smallest residual mean square, which discards early-time polynomial
    corrections.

    For a Monte Carlo curve (`n_total` set) the standard error is the
    delta-method one of the slope sum_i c_i log p_i on the window, with
    c_i = w_i (t_i - tbar) / S_tt.  For t_i <= t_j the n trajectories give
    Cov(log p_i, log p_j) = v_i = (1 - p_i) / (n p_i), so the variance
    sum_ij c_i c_j v_min(i,j) telescopes to
    sum_k (v_k - v_{k-1}) (sum_{i >= k} c_i)^2 with v_{-1} = 0.  An exact
    curve gets the WLS residual standard error.
    """
    log_p = curve.log_estimate
    usable = np.isfinite(log_p)
    if curve.n_alive is not None:
        usable &= curve.n_alive >= N_ALIVE_FLOOR
    idx = np.flatnonzero(usable)
    if idx.size < MIN_POINTS:
        raise FitError(
            f"only {idx.size} usable grid points (need {MIN_POINTS}); "
            "extend the grid or add trajectories")
    t = curve.t[idx]
    y = log_p[idx]
    if curve.n_total is not None and curve.n_alive is not None:
        p = curve.estimate[idx]
        w = curve.n_total * p / np.clip(1 - p, 1e-12, None)  # 1/var(log p̂)
    else:
        w = np.ones_like(t)

    fits = [_wls_slope(t[start:], y[start:], w[start:])
            for start in range(idx.size - MIN_POINTS + 1)]
    # the first window of least residual mean square
    start = min(range(len(fits)), key=lambda s: fits[s][3])
    slope, inter, r2, rms, stt, c = fits[start]
    tw = t[start:]
    if curve.n_total is not None:
        pw = curve.estimate[idx[start:]]
        v = (1 - pw) / (curve.n_total * pw)
        tail = np.cumsum(c[::-1])[::-1]
        se = float(np.sqrt((np.diff(v, prepend=0.0) * tail**2).sum()))
    else:
        se = float(np.sqrt(rms / stt)) if tw.size > 2 else 0.0

    n_hi = int(curve.n_alive[idx][-1]) if curve.n_alive is not None else None
    return DecayFit(lambda_hat=float(-slope), stderr=se,
                    window=(float(tw[0]), float(tw[-1])),
                    r_squared=float(r2), n_alive_at_hi=n_hi,
                    intercept=float(inter))


# ---------------------------------------------------------------------------
# exponentiality diagnostics
# ---------------------------------------------------------------------------

@dataclass
class MomentRow:
    k: int
    empirical: float
    theoretical: float     # k! / lambda^k
    ratio: float
    ratio_ci: tuple[float, float]


@dataclass
class ExponentialityReport:
    lambda_hat: float
    moments: list[MomentRow]
    ks_statistic: float
    ks_threshold: float
    atom_at_zero: float
    n_samples: int

    @property
    def exponential_ok(self) -> bool:
        return self.ks_statistic <= self.ks_threshold

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "lambda_hat": self.lambda_hat,
            "ks_statistic": self.ks_statistic,
            "ks_threshold": self.ks_threshold,
            "exponential_ok": self.exponential_ok,
            "atom_at_zero": self.atom_at_zero,
            "n_samples": self.n_samples,
            "moments": [
                {"k": m.k, "empirical": m.empirical,
                 "theoretical": m.theoretical, "ratio": m.ratio,
                 "ratio_ci": list(m.ratio_ci)} for m in self.moments
            ],
        }


def exponentiality_report(taus: np.ndarray,
                          lambda_hat: float) -> ExponentialityReport:
    """Compare hitting-time samples against the exponential law of the fitted
    rate: moment ratios E[tau^k] / (k! / lambda^k) for k = 1 .. MAX_MOMENT,
    and the Kolmogorov-Smirnov distance against its asymptotic critical
    value at level KS_ALPHA (simple hypothesis: lambda_hat is treated as
    given).  Raises `FitError` without samples or with lambda_hat <= 0,
    which has no exponential law.

    Each ratio's band is its CI_SIGMAS band under Exp(lambda_hat), on the
    log scale.  Under that law Var(tau^k) / E[tau^k]^2 = C(2k, k) - 1, so
    the log of the empirical moment has standard error
    sqrt((C(2k, k) - 1) / n) and the band is
    ratio * exp(-+ CI_SIGMAS sqrt((C(2k, k) - 1) / n)).
    """
    from scipy.special import expm1, logsumexp

    taus = np.asarray(taus, dtype=np.float64)
    n = taus.size
    if n == 0:
        raise FitError("no hitting times to compare with an exponential law")
    if not lambda_hat > 0:
        raise FitError(f"fitted decay rate {lambda_hat!r} is not positive, "
                       "so there is no exponential law to compare with; "
                       "extend the grid or add trajectories")
    logt = np.log(np.clip(taus, 1e-300, None))
    moments = []
    for k in range(1, MAX_MOMENT + 1):
        th = math.lgamma(k + 1) - k * math.log(lambda_hat)
        log_mk = float(logsumexp(k * logt)) - math.log(n)
        ratio = math.exp(log_mk - th)
        half = CI_SIGMAS * math.sqrt((math.comb(2 * k, k) - 1) / n)
        moments.append(MomentRow(k, math.exp(log_mk), math.exp(th), ratio,
                                 (ratio * math.exp(-half),
                                  ratio * math.exp(half))))
    # the two-sided statistic against the CDF 1 - exp(-lambda t), with the
    # arithmetic of scipy's kstest (which gives the same bits)
    cdf = -expm1(-np.sort(taus) / (1.0 / lambda_hat))
    ks = max((np.arange(1.0, n + 1) / n - cdf).max(),
             (cdf - np.arange(0.0, n) / n).max())
    threshold = math.sqrt(-0.5 * math.log(KS_ALPHA / 2.0)) / math.sqrt(n)
    return ExponentialityReport(
        lambda_hat=lambda_hat, moments=moments, ks_statistic=float(ks),
        ks_threshold=float(threshold),
        atom_at_zero=float(np.mean(taus == 0.0)), n_samples=n)

