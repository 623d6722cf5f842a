import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import kstest

from qslab import rng as rngmod
from qslab.estimators import (N_ALIVE_FLOOR, N_BOOT, FitError,
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
        curve; the fitted rate stays within two bootstrap errors."""
        lam, n = 0.7, 40_000
        gen = rngmod.stream(900, rngmod.SAMPLING, 0)
        taus = gen.exponential(1.0 / lam, n)
        t = np.linspace(0.2, 5.0, 15)
        alive = (taus[None, :] > t[:, None]).sum(axis=1)
        curve = SurvivalCurve(t=t, estimate=alive / n, n_alive=alive,
                              n_total=n, taus=taus,
                              hit=np.ones(n, dtype=bool))
        fit = fit_decay(curve, seed=901)
        assert abs(fit.lambda_hat - lam) <= 2 * fit.stderr

    @pytest.mark.parametrize("n", [7, 100, 900, 20_000])
    def test_bootstrap_matches_one_resample_at_a_time(self, n):
        """The block of multinomial window-bin counts gives the standard
        error, bit for bit, of drawing and refitting one resample at a time
        from the same stream.  Sample 0 did not hit, and the last grid time
        is the largest hitting time, so that sample alone is alive there and
        about e^-1 of the resamples have no survivor and are dropped; a
        tenth of the samples hit at tau = 0."""
        taus = rngmod.stream(910, rngmod.SAMPLING, 0).exponential(2.0, n)
        taus[1:1 + n // 10] = 0.0
        hit = np.ones(n, dtype=bool)
        hit[0] = False
        t = np.linspace(0.1, taus[hit].max(), 8)
        alive = (taus[None, :] > t[:, None]) | ~hit
        curve = SurvivalCurve(t=t, estimate=alive.mean(axis=1), n_total=n,
                              taus=taus, hit=hit)
        fit = fit_decay(curve, seed=911)
        tw = t[t >= fit.window[0]]
        # the number of window times at which each sample is alive
        n_win = ((taus[:, None] > tw[None, :]) | ~hit[:, None]).sum(axis=1)
        freq = np.bincount(n_win, minlength=tw.size + 1) / n
        boot = rngmod.stream(911, rngmod.BOOTSTRAP, 1)
        slopes = []
        for _ in range(N_BOOT):
            hist = boot.multinomial(n, freq)
            pb = np.array([hist[j + 1:].sum() for j in range(tw.size)]) / n
            if (pb <= 0).any():
                continue
            w = n * pb / np.clip(1 - pb, 1e-12, None)
            y = np.log(pb)
            tbar = (w * tw).sum() / w.sum()
            ybar = (w * y).sum() / w.sum()
            slopes.append((w * (tw - tbar) * (y - ybar)).sum()
                          / (w * (tw - tbar) ** 2).sum())
        assert 1 < len(slopes) < N_BOOT
        assert fit.stderr == float(np.std(slopes, ddof=1))

    def test_bootstrap_has_the_law_of_uniform_picks(self):
        """Counts drawn by bin have the law of n uniform picks binned: over
        40 exponential curves of 2,000 samples, the mean standard error
        lies within 5% of that of a bootstrap of picks, refitted on the same
        window (paired by curve, the two means differ by about 1% sd)."""
        n, t = 2000, np.linspace(0.2, 3.0, 8)
        ours, picked = [], []
        for seed in range(40):
            taus = rngmod.stream(920 + seed, rngmod.SAMPLING, 0) \
                .exponential(1.0, n)
            alive = (taus[None, :] > t[:, None]).sum(axis=1)
            curve = SurvivalCurve(t=t, estimate=alive / n, n_alive=alive,
                                  n_total=n, taus=taus,
                                  hit=np.ones(n, dtype=bool))
            fit = fit_decay(curve, seed=seed)
            ours.append(fit.stderr)
            tw = t[t >= fit.window[0]]
            picks = rngmod.stream(seed, rngmod.SAMPLING, 1) \
                .integers(0, n, (N_BOOT, n))
            pb = (taus[picks][:, None, :] > tw[None, :, None]).mean(axis=2)
            w = n * pb / (1 - pb)
            slope = np.polynomial.polynomial.polyfit
            picked.append(np.std([slope(tw, np.log(p), 1, w=np.sqrt(wi))[1]
                                  for p, wi in zip(pb, w)], ddof=1))
        assert np.mean(ours) == pytest.approx(np.mean(picked), rel=0.05)


class TestExponentiality:
    def test_exponential_samples_declared_exponential(self):
        gen = rngmod.stream(902, rngmod.SAMPLING, 0)
        rep = exponentiality_report(gen.exponential(0.5, 5000), 2.0, seed=903)
        assert rep.exponential_ok
        for row in rep.moments:
            assert row.ratio_ci[0] <= 1.0 <= row.ratio_ci[1]

    @pytest.mark.parametrize("n,decimals", [
        *(pytest.param(n, None, id=str(n)) for n in [1, 7, 100, 900, 20_000]),
        pytest.param(30, None, id="30"),
        pytest.param(30, 1, id="30-ties"),
        pytest.param(900, 1, id="900-ties")])
    def test_bootstrap_matches_one_resample_at_a_time(self, n, decimals):
        """Every moment's band is, to 1e-12 relative, the quantiles of
        mean(taus[pick] ** k) over resamples picked one at a time from the
        same stream (n = 100 and 20,000 split the resamples into several
        blocks), so all moments read one resample set.  A tenth of the
        samples are zero; taus rounded to 0.1 tie, also at the maximum."""
        taus = rngmod.stream(908, rngmod.SAMPLING, 0).exponential(2.0, n)
        taus[:n // 10] = 0.0
        if decimals is not None:
            taus = np.round(taus, decimals)
        rep = exponentiality_report(taus, 0.5, seed=909)
        boot = rngmod.stream(909, rngmod.BOOTSTRAP, 2)
        picks = [boot.integers(0, n, n) for _ in range(N_BOOT)]
        for row in rep.moments:
            theo = math.factorial(row.k) / 0.5 ** row.k
            ratios = [np.mean(taus[pick] ** row.k) / theo for pick in picks]
            lo, hi = np.quantile(ratios, [0.0015, 0.9985])
            assert row.ratio_ci == pytest.approx((lo, hi), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 30, 900])
    def test_statistics_match_scipy(self, n):
        """The moments, ratios, KS statistic and atom at zero are, bit for
        bit, scipy's log-sum-exp and `kstest` on the samples (a tenth of
        them at zero)."""
        taus = rngmod.stream(912, rngmod.SAMPLING, 0).exponential(2.0, n)
        taus[:n // 10] = 0.0
        rep = exponentiality_report(taus, 0.5, seed=913)
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
            ks = exponentiality_report(taus, 1.0, n_boot=10, seed=905)
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
        rep = exponentiality_report(taus, rho, seed=907)
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

