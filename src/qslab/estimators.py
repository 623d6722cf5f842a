"""Statistical reduction: survival curves, decay-rate fits and
exponentiality diagnostics.  Pure functions over immutable sample arrays.

Both bootstraps draw only what a resample's statistic reads (Efron &
Tibshirani, *An Introduction to the Bootstrap*, 1993): `fit_decay` draws a
resample's counts in the m + 1 bins of its fit window (m grid times) in one
multinomial draw instead of n picks, and `exponentiality_report` counts a
resample's picks per sample and gets all MAX_MOMENT moment sums from one
product of those counts with the powers (tau / tau_max)^k, so its moments
share one resample set."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expm1, logsumexp

from . import rng as rngmod

REPORT_SCHEMA_VERSION = 1
CI_SIGMAS = 3.0      # standard errors of bands and Monte Carlo bound checks
N_ALIVE_FLOOR = 100  # alive trajectories a Monte Carlo fit point needs
MIN_POINTS = 5       # usable grid points a decay fit needs
N_BOOT = 200         # bootstrap resamples
MAX_MOMENT = 4       # largest moment order of the exponentiality report
KS_ALPHA = 0.05      # level of its Kolmogorov-Smirnov threshold
# picks drawn at once by `exponentiality_report`'s bootstrap: resamples of
# n picks come in blocks of max(1, _BOOT_BLOCK // n), and an (r, n) draw
# equals r draws of n in turn, so a block picks what one resample at a time
# picks; the uint32 picks (numpy draws them by the same bounded 32-bit path
# as int64 picks below 2^32, so the same values) and the block's (r, n)
# per-sample counts hold max(n, _BOOT_BLOCK) entries, so the peak memory
# stays near that of one resample
_BOOT_BLOCK = 1 << 14


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
    """Weighted least-squares line through (t, y) along the last axis:
    slope, intercept, R^2 and residual mean square, one per leading index
    (arrays of shape y.shape[:-1], 0-d for one fit).  Row by row the
    arithmetic is that of a 1-d fit, so a batch gives the same bits."""
    W = w.sum(axis=-1, keepdims=True)
    tbar = (w * t).sum(axis=-1, keepdims=True) / W
    ybar = (w * y).sum(axis=-1, keepdims=True) / W
    stt = (w * (t - tbar) ** 2).sum(axis=-1, keepdims=True)
    slope = (w * (t - tbar) * (y - ybar)).sum(axis=-1, keepdims=True) / stt
    inter = ybar - slope * tbar
    resid = y - (inter + slope * t)
    ss_res = (w * resid**2).sum(axis=-1)
    ss_tot = (w * (y - ybar) ** 2).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot == 0, 1.0, 1.0 - ss_res / ss_tot)
    return (slope[..., 0], inter[..., 0], r2,
            ss_res / max(1, t.shape[-1] - 2))


def fit_decay(curve: SurvivalCurve, seed: int = 0) -> DecayFit:
    """Weighted least squares of log P(tau > t) against t.

    Usable points need positive survival and (for Monte Carlo curves) at
    least N_ALIVE_FLOOR trajectories alive.  Raises `FitError` when fewer
    than MIN_POINTS grid points are usable.  The window drops early points
    one at a time while MIN_POINTS remain and keeps the suffix with the
    smallest residual mean square, which discards early-time polynomial
    corrections.  The standard error is the spread of the slope over
    N_BOOT bootstrap resamples of the hitting times when they are
    available, else the WLS standard error.  A resample's fit reads only
    how many of its n picks are alive at each of the m window times, that
    is its counts in the m + 1 bins of "alive at the first j window times",
    so each resample is one multinomial draw of n over the samples' bin
    frequencies (the law of n uniform picks binned), and resamples with no
    survivor at the last window time are dropped.
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

    best = None
    for start in range(0, idx.size - MIN_POINTS + 1):
        slope, inter, r2, rms = _wls_slope(t[start:], y[start:], w[start:])
        if best is None or rms < best[0]:
            best = (rms, start, slope, inter, r2)
    _, start, slope, inter, r2 = best
    tw, yw, ww = t[start:], y[start:], w[start:]

    if curve.taus is not None and curve.n_total:
        n, m = curve.taus.size, tw.size
        # sample i is alive at the first n_win[i] window times (all m when it
        # did not hit), so a resample's alive counts are the reversed
        # cumulative histogram of its picks' n_win
        n_win = np.searchsorted(tw, curve.taus, "left")
        if curve.hit is not None:
            n_win[~curve.hit] = m
        hist = rngmod.stream(seed, rngmod.BOOTSTRAP, 1).multinomial(
            n, np.bincount(n_win, minlength=m + 1) / n, size=N_BOOT)
        # alive at window time j: the picks with n_win > j
        counts = hist[:, :0:-1].cumsum(axis=1)[:, ::-1]
        # a resample with no survivor at the last window time has no fit
        pb = counts[counts[:, -1] > 0] / n
        slopes, *_ = _wls_slope(tw, np.log(pb),
                                n * pb / np.clip(1 - pb, 1e-12, None))
        se = float(np.std(slopes, ddof=1)) if slopes.size > 1 \
            else float("nan")
    else:
        _, _, _, rms = _wls_slope(tw, yw, ww)
        W = ww.sum()
        tbar = (ww * tw).sum() / W
        stt = (ww * (tw - tbar) ** 2).sum()
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


def exponentiality_report(taus: np.ndarray, lambda_hat: float,
                          n_boot: int = N_BOOT,
                          seed: int = 0) -> ExponentialityReport:
    """Compare hitting-time samples against the exponential law of the fitted
    rate: moment ratios E[tau^k] / (k! / lambda^k) for k = 1 .. MAX_MOMENT
    with ~3-sigma bands over `n_boot` bootstrap resamples, and the
    Kolmogorov-Smirnov distance against its asymptotic critical value at
    level KS_ALPHA (simple hypothesis: lambda_hat is treated as given).
    Raises `FitError` without samples or with lambda_hat <= 0, which has no
    exponential law.

    The moments share one set of resamples: a block of them is counted per
    sample, and one product of the counts with (tau / tau_max)^k gives every
    resample's sums for all k at once.  The scaling keeps the sums finite;
    below about 1e-81 tau_max a sample adds exactly 0 to a k = 4 sum (and
    below about 1e-77 tau_max a subnormal), which the tau_max term dwarfs.
    """
    taus = np.asarray(taus, dtype=np.float64)
    n = taus.size
    if n == 0:
        raise FitError("no hitting times to compare with an exponential law")
    if not lambda_hat > 0:
        raise FitError(f"fitted decay rate {lambda_hat!r} is not positive, "
                       "so there is no exponential law to compare with; "
                       "extend the grid or add trajectories")
    orders = np.arange(1, MAX_MOMENT + 1)
    theo = [math.lgamma(k + 1) - k * math.log(lambda_hat)
            for k in orders.tolist()]
    scale = taus.max() or 1.0
    powers = (taus / scale)[:, None] ** orders
    boot = rngmod.stream(seed, rngmod.BOOTSTRAP, 2)
    rows = max(1, _BOOT_BLOCK // n)
    sums = []
    for start in range(0, n_boot, rows):
        r = min(rows, n_boot - start)
        picks = boot.integers(0, n, (r, n), dtype=np.uint32)
        counts = np.bincount((picks + n * np.arange(r)[:, None]).ravel(),
                             minlength=r * n).reshape(r, n)
        sums.append(counts @ powers)
    with np.errstate(divide="ignore"):  # a resample of zeros has ratio 0
        log_ratios = (np.log(np.concatenate(sums) / n)
                      + (orders * math.log(scale) - theo))
    lo, hi = np.quantile(np.exp(log_ratios), [0.0015, 0.9985], axis=0)
    logt = np.log(np.clip(taus, 1e-300, None))
    moments = []
    for k, th, band in zip(orders.tolist(), theo,
                           zip(lo.tolist(), hi.tolist())):  # ~3 sigma bands
        log_mk = float(logsumexp(k * logt)) - math.log(n)
        moments.append(MomentRow(k, math.exp(log_mk), math.exp(th),
                                 math.exp(log_mk - th), band))
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

