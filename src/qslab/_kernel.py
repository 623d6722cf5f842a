"""Event-driven core loop for the (killed) misanthrope dynamics.

The loop is interpreted Python over numpy arrays; it consumes the caller's
Philox stream one scalar draw at a time, so a trajectory depends only on its
stream.

Per event only the touched sites (and, when b depends on the destination
occupancy, their kernel preimages) have their exit rates recomputed; the
total rate is maintained incrementally and resynchronized periodically
against float drift.
"""

import numpy as np

STATUS_HIT = 0
STATUS_CENSORED = 1
STATUS_FROZEN = 2
STATUS_BUFFER_FULL = 3

_RESYNC_PERIOD = 4096


def _site_rate(occ, nbr, w, btab, s):
    n = occ[s]
    if n == 0:
        return 0.0
    r = 0.0
    for o in range(nbr.shape[1]):
        j = nbr[s, o]
        if j >= 0:
            r += w[o] * btab[n, occ[j]]
    return r


def _refresh_all(occ, nbr, w, btab, rates):
    total = 0.0
    for s in range(occ.shape[0]):
        r = _site_rate(occ, nbr, w, btab, s)
        rates[s] = r
        total += r
    return total


def run_killed(occ, nbr, innbr, w, btab, target_dep, in_window, threshold,
               t0, t_max, gen, ev_time, ev_src, ev_dst, n_ev0):
    """Advance the configuration until the window sum exceeds the threshold,
    t_max is reached, the buffer fills, or no rate remains.

    Returns (status, time, n_events).  `occ` is mutated in place; events are
    appended to the buffers starting at n_ev0.  Resume by calling again with
    the mutated state and the returned time.
    """
    n_sites = occ.shape[0]
    n_off = nbr.shape[1]
    cap = btab.shape[0] - 1
    rates = np.empty(n_sites, dtype=np.float64)
    total = _refresh_all(occ, nbr, w, btab, rates)

    window = 0
    for s in range(n_sites):
        if in_window[s]:
            window += occ[s]
    if window > threshold:
        return STATUS_HIT, t0, n_ev0

    t = t0
    n_ev = n_ev0
    cap_events = ev_time.shape[0]
    steps_to_resync = _RESYNC_PERIOD
    touched = np.empty(2 * (n_off + 1), dtype=np.int64)

    while True:
        if total <= 1e-300:
            return STATUS_FROZEN, t, n_ev
        if n_ev >= cap_events:
            return STATUS_BUFFER_FULL, t, n_ev
        u = gen.random()
        dt = -np.log1p(-u) / total
        t_next = t + dt
        if t_next > t_max:
            return STATUS_CENSORED, t_max, n_ev
        t = t_next

        # joint selection of (site, offset) proportional to w * b
        u2 = gen.random() * total
        acc = 0.0
        i = -1
        for s in range(n_sites):
            r = rates[s]
            if r > 0.0:
                acc += r
                if u2 < acc:
                    i = s
                    break
                i = s  # float-drift guard: fall back to last positive site
        if i < 0:
            total = _refresh_all(occ, nbr, w, btab, rates)
            continue
        residual = u2 - (acc - rates[i])
        if residual < 0.0:
            residual = 0.0
        ni = occ[i]
        acc2 = 0.0
        j = -1
        for o in range(n_off):
            tgt = nbr[i, o]
            if tgt >= 0:
                r = w[o] * btab[ni, occ[tgt]]
                if r > 0.0:
                    acc2 += r
                    if residual < acc2:
                        j = tgt
                        break
                    j = tgt
        if j < 0:
            total = _refresh_all(occ, nbr, w, btab, rates)
            continue

        occ[i] -= 1
        if occ[j] >= cap:
            # the rate table certifies btab rows up to its cap; exceeding it
            # means the caller sized it below the particle total
            raise RuntimeError("occupancy exceeded the rate-table cap")
        occ[j] += 1

        ev_time[n_ev] = t
        ev_src[n_ev] = i
        ev_dst[n_ev] = j
        n_ev += 1

        if in_window[i]:
            window -= 1
        if in_window[j]:
            window += 1

        n_touch = 0
        touched[n_touch] = i
        n_touch += 1
        if j != i:
            touched[n_touch] = j
            n_touch += 1
        if target_dep:
            for o in range(n_off):
                for site in (innbr[i, o], innbr[j, o]):
                    if site >= 0:
                        seen = False
                        for q in range(n_touch):
                            if touched[q] == site:
                                seen = True
                                break
                        if not seen:
                            touched[n_touch] = site
                            n_touch += 1
        for q in range(n_touch):
            s = touched[q]
            r_new = _site_rate(occ, nbr, w, btab, s)
            total += r_new - rates[s]
            rates[s] = r_new

        if window > threshold:
            return STATUS_HIT, t, n_ev

        steps_to_resync -= 1
        if steps_to_resync == 0:
            total = _refresh_all(occ, nbr, w, btab, rates)
            steps_to_resync = _RESYNC_PERIOD
