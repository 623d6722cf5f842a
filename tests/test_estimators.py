import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import kstest

from qslab import rng as rngmod
from qslab.estimators import (MAX_MOMENT, MIN_POINTS, N_ALIVE_FLOOR, FitError,
                              SurvivalCurve, exponentiality_report, fit_decay)
from qslab.spectral import tasep_line_survival


class TestFitDecay:
    def test_noise_free_exponential_recovered_exactly(self):
        t = np.linspace(0.5, 8, 16)
        curve = SurvivalCurve.from_log(t, math.log(0.5) - 0.5 * t)
        fit = fit_decay(curve)
        assert fit.lambda_hat == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_curve_rate_zero(self):
        curve = SurvivalCurve(t=np.linspace(0, 5, 8),
                              estimate=np.ones(8))
        assert fit_decay(curve).lambda_hat == pytest.approx(0.0, abs=1e-14)

    def test_polynomial_prefactor_window_dropped(self):
        # e^{-t} (1 + t + t^2/2): early slope is shallow; the windowed fit
        # must land near the asymptotic unit rate
        t = np.linspace(1.0, 60.0, 40)
        log_p = -t + np.log(1 + t + 0.5 * t**2)
        fit = fit_decay(SurvivalCurve.from_log(t, log_p))
        assert fit.window[0] > t[0]
        assert fit.lambda_hat == pytest.approx(1.0, abs=0.05)

    def test_insufficient_points_raises(self):
        t = np.array([1.0, 2.0, 3.0])
        curve = SurvivalCurve.from_log(t, -t)
        with pytest.raises(FitError):
            fit_decay(curve)

    def test_alive_floor_excludes_thin_tail(self):
        # with n = 20 floors, n_alive clears the floor while p >= 1/20, i.e.
        # t <= ln(14) / 0.8 ~ 3.3: six grid points (0.5 .. 3.0), more than
        # MIN_POINTS, and the thin tail (3.5 .. 10) stays on the grid below
        t = np.linspace(0.5, 10, 20)
        p = 0.7 * np.exp(-0.8 * t)
        n = 20 * N_ALIVE_FLOOR
        n_alive = (n * p).astype(int)
        curve = SurvivalCurve(t=t, estimate=p, n_alive=n_alive, n_total=n)
        below = n_alive < N_ALIVE_FLOOR
        assert below.any()
        fit = fit_decay(curve)
        assert fit.n_alive_at_hi >= N_ALIVE_FLOOR
        assert fit.window[1] == t[~below][-1]
        assert fit.window[1] < t[below].min()
        assert fit.lambda_hat == pytest.approx(0.8, abs=1e-12)

    def test_calibration_within_two_stderr(self):
        """Known synthetic generator: binomial noise on an exponential
        curve; the fitted rate stays within two standard errors."""
        lam, n = 0.7, 40_000
        gen = rngmod.stream(900, rngmod.SAMPLING, 0)
        taus = gen.exponential(1.0 / lam, n)
        t = np.linspace(0.2, 5.0, 15)
        alive = (taus[None, :] > t[:, None]).sum(axis=1)
        curve = SurvivalCurve(t=t, estimate=alive / n, n_alive=alive,
                              n_total=n, taus=taus,
                              hit=np.ones(n, dtype=bool))
        fit = fit_decay(curve)
        assert abs(fit.lambda_hat - lam) <= 2 * fit.stderr

    def test_stderr_is_the_spread_of_the_rate(self):
        """On a grid of exactly MIN_POINTS usable times the window is fixed,
        so over 1,000 curves of 2,000 exponential samples the mean
        delta-method standard error is within 10% of the spread of the
        fitted rates."""
        n, reps = 2000, 1000
        t = np.linspace(0.2, 2.0, MIN_POINTS)
        taus = rngmod.stream(914, rngmod.SAMPLING, 0).exponential(1.0,
                                                                  (reps, n))
        lams, ses = [], []
        for row in taus:
            alive = (row[None, :] > t[:, None]).sum(axis=1)
            fit = fit_decay(SurvivalCurve(t=t, estimate=alive / n,
                                          n_alive=alive, n_total=n))
            assert fit.window == (t[0], t[-1])
            lams.append(fit.lambda_hat)
            ses.append(fit.stderr)
        assert np.mean(ses) == pytest.approx(np.std(lams, ddof=1), rel=0.10)


class TestExponentiality:
    def test_exponential_samples_declared_exponential(self):
        gen = rngmod.stream(902, rngmod.SAMPLING, 0)
        rep = exponentiality_report(gen.exponential(0.5, 5000), 2.0)
        assert rep.exponential_ok
        for row in rep.moments:
            assert row.ratio_ci[0] <= 1.0 <= row.ratio_ci[1]

    def test_bands_cover_at_three_sigma(self):
        """Over 4,000 exponential samples of 688 times, every moment's band
        under the true law holds the ratio 1 at least 99% of the time (the
        nominal three-sigma level is 99.7%)."""
        gen = rngmod.stream(916, rngmod.SAMPLING, 0)
        covered = np.zeros(MAX_MOMENT)
        reps = 4000
        for _ in range(reps):
            rep = exponentiality_report(gen.exponential(2.0, 688), 0.5)
            covered += [row.ratio_ci[0] <= 1.0 <= row.ratio_ci[1]
                        for row in rep.moments]
        assert (covered / reps >= 0.99).all(), covered / reps

    @pytest.mark.parametrize("n", [1, 30, 900])
    def test_statistics_match_scipy(self, n):
        """The moments, ratios, KS statistic and atom at zero are, bit for
        bit, scipy's log-sum-exp and `kstest` on the samples (a tenth of
        them at zero)."""
        taus = rngmod.stream(912, rngmod.SAMPLING, 0).exponential(2.0, n)
        taus[:n // 10] = 0.0
        rep = exponentiality_report(taus, 0.5)
        logt = np.log(np.clip(taus, 1e-300, None))
        for row in rep.moments:
            log_mk = float(logsumexp(row.k * logt)) - math.log(n)
            theo = math.lgamma(row.k + 1) - row.k * math.log(0.5)
            assert row.empirical == math.exp(log_mk)
            assert row.ratio == math.exp(log_mk - theo)
        assert rep.ks_statistic == kstest(taus, "expon",
                                          args=(0, 1 / 0.5)).statistic
        assert rep.atom_at_zero == np.mean(taus == 0.0)

    @pytest.mark.parametrize("taus,lambda_hat", [
        (np.array([0.5, 1.0]), 0.0), (np.array([0.5, 1.0]), -0.0),
        (np.array([0.5, 1.0]), -1.0), (np.array([]), 1.0)])
    def test_no_exponential_law_raises(self, taus, lambda_hat):
        with pytest.raises(FitError):
            exponentiality_report(taus, lambda_hat)

    def test_false_positive_rate_calibrated(self):
        gen = rngmod.stream(904, rngmod.SAMPLING, 0)
        rejections = 0
        reps = 200
        for _ in range(reps):
            taus = gen.exponential(1.0, 800)
            ks = exponentiality_report(taus, 1.0)
            rejections += not ks.exponential_ok
        # nominal level 5%; binomial 3 sigma slack on 200 replicas
        assert rejections / reps <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / reps)

    def test_half_line_hitting_times_flagged_nonexponential(self):
        """Closed-form curve oracle: tau has an atom at zero of mass rho and
        mean (1 - rho)/rho, so iterate zero must be flagged."""
        rho, n = 0.5, 20_000
        gen = rngmod.stream(906, rngmod.SAMPLING, 0)
        # draw from the exact law: atom at 0 w.p. rho, else Exp(rho)
        atom = gen.random(n) < rho
        taus = np.where(atom, 0.0, gen.exponential(1.0 / rho, n))
        mean_expected = (1 - rho) / rho
        assert abs(taus.mean() - mean_expected) <= \
            4 * taus.std(ddof=1) / math.sqrt(n)
        rep = exponentiality_report(taus, rho)
        assert rep.atom_at_zero == pytest.approx(rho, abs=0.02)
        assert not rep.exponential_ok

    def test_moment_targets_match_curve_integral(self):
        # E[tau] = int_0^inf P(tau > t) dt = (1 - rho)/rho for the law with
        # an atom of mass rho at zero and an Exp(rho) tail: the mean that
        # test_half_line_hitting_times_flagged_nonexponential checks, not the
        # 1/rho of an exponential law.  Adaptive quadrature over [0, inf)
        # leaves no grid or truncation error to weigh against the tolerance.
        rho = 0.5
        integral, _ = quad(lambda s: tasep_line_survival(rho, s), 0, np.inf)
        assert integral == pytest.approx((1 - rho) / rho, abs=1e-6)

