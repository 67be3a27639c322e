"""Reports do not depend on mpmath's global interval precision: every
decision builds its intervals in the context of its own level, so two
threads deciding while a third rewrites `iv.prec` get the serial reports."""

import sys
import threading
from fractions import Fraction

from mpmath import iv

from divlat import certify, moments
from divlat.core import factorize, primorial

#: squarefree n, with omega from 2 to 9
NS = (6, 2310, 30030, 3 * 5 * 7 * 11 * 13 * 17 * 19, primorial(9))
#: theta values whose q = t theta omega is mostly not an integer
THETAS = (Fraction(1, 3), 0.3, 0.7)
#: (theta, omega) inside the optimizer's hypothesis alpha - 1 < log(omega)
OPTIMIZER_CASES = ((0.5, 10), (0.7, 12), (Fraction(9, 10), 20), (1.0, 30))


def _reports() -> list:
    """H_chain_check, chain_check, thm_bounds and optimal_even_t on fixed
    inputs, with the caches of every enclosure cleared first, so each
    interval is built during the call."""
    certify.pow2_neg_ends.cache_clear()
    certify.pow2_ceil.cache_clear()
    moments._thm_exponentials.cache_clear()
    out = []
    for n in NS:
        f = factorize(n)
        profile = moments.divisor_profile(f)
        for t in (2, 3, 4):
            lt = moments.moment_by_parts(profile, t)
            out += [moments.chain_check(profile, t, lt), *moments.thm_bounds(f, t, lt)]
            if t % 2 == 0:
                out += [moments.H_chain_check(profile, theta, t) for theta in THETAS]
    out += [moments.optimal_even_t(theta, omega) for theta, omega in OPTIMIZER_CASES]
    return out


def test_reports_ignore_a_thread_writing_iv_prec():
    start = iv.prec
    serial = _reports()
    stop = threading.Event()
    results, errors = [], []

    def toggle():
        while not stop.is_set():
            iv.prec = 4096
            iv.prec = start

    def work():
        try:
            results.extend(_reports() for _ in range(5))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    toggler = threading.Thread(target=toggle)
    workers = [threading.Thread(target=work) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the decisions
    try:
        toggler.start()
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        stop.set()
        toggler.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in (toggler, *workers))
    assert errors == []
    assert len(results) == 10 and all(r == serial for r in results)
    assert iv.prec == start
