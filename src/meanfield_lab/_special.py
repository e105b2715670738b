"""The three special functions of the limit laws, in numpy.

ln Gamma(1 + 1/d), the normal CDF ``ndtr`` and the regularised lower
incomplete gamma P(1/d, x) follow the Cephes routines behind scipy.special
(Moshier, *Methods and Programs for Mathematical Functions*, 1989): the same
branch points, coefficients and stopping rules, over whole arrays.  An
iteration runs on the points that have not converged yet, and each point
stops where the scalar code would.  numpy's exp and log may differ from the C
library's by one ulp, so the last bits of a result may not be scipy's.
"""

from __future__ import annotations

import math

import numpy as np

_MACHEP = 2.0 ** -53
_MAXLOG = 7.09782712893383996843e2
_MAXITER = 2000
# ln Gamma(1 + 1/d) as scipy.special.gammaln gives it; math.lgamma is 33-49 ulp off here
_LOG_GAMMA_1P = {4: float.fromhex("-0x1.92857d38caf3ep-4"),
                 6: float.fromhex("-0x1.334e7fb05a3efp-4"),
                 8: float.fromhex("-0x1.ebb5bd9a570d8p-5")}
# erf on |x| <= 1 (T / U), erfc on 1 <= x < 8 (P / Q) and x >= 8 (R / S); U, Q, S lead with 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# Lanczos approximation (g, and the rational sum with exp(g) scaled out), as Cephes' igam takes it
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222, 0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208, 449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526, 75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507, 3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571, 43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342, 103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859)
_LANCZOS_DEN = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0, 45995730.0,
                105258076.0, 150917976.0, 120543840.0, 39916800.0, 0.0)


def log_gamma_1p(d: int) -> float:
    """ln Gamma(1 + 1/d): scipy's value for d = 4, 6, 8 and math.lgamma otherwise."""
    return _LOG_GAMMA_1P.get(d) or math.lgamma(1.0 + 1.0 / d)


def _polevl(x, coeffs, monic: bool = False):
    """Horner's rule from the leading coefficient; ``monic`` puts a 1 before it (p1evl)."""
    y = x + coeffs[0] if monic else coeffs[0]
    for c in coeffs[1:]:
        y = y * x + c
    return y


def ndtr(x):
    """Standard normal CDF: 1/2 + erf/2 for |x| < 1, erfc/2 beyond (Cephes ndtr)."""
    x = np.asarray(x, dtype=float) * math.sqrt(0.5)
    z = np.abs(x)
    zz = z * z
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        erf = x * _polevl(zz, _T) / _polevl(zz, _U, monic=True)
        low = z < 8.0
        tail = (np.exp(-zz) * np.where(low, _polevl(z, _P), _polevl(z, _R))
                / np.where(low, _polevl(z, _Q, True), _polevl(z, _S, True)))
    half = 0.5 * np.where(z < 1.0, 1.0 - np.abs(erf), np.where(zz > _MAXLOG, 0.0, tail))
    return np.where(z < math.sqrt(0.5), 0.5 + 0.5 * erf, np.where(x > 0, 1.0 - half, half))


def _iterate(step, state):
    """Apply ``step`` to the state arrays until every point is done.

    ``step(state)`` returns (value, done, state) for one iteration; a point's
    result is its value at the first iteration that marks it done, or at
    iteration ``_MAXITER``.  A done point iterates on, unread, until the done
    points are half of the state, which then drops them.
    """
    out = np.empty(len(state[0]))
    live = np.arange(len(out))
    pending = np.ones(len(out), dtype=bool)
    for i in range(_MAXITER if len(out) else 0):
        value, done, state = step(state)
        hit = done & pending if i < _MAXITER - 1 else pending
        if np.count_nonzero(hit):
            out[live[hit]] = value[hit]
            pending ^= hit
            left = np.count_nonzero(pending)
            if not left:
                break
            if 2 * left <= len(live):
                live, state, pending = live[pending], [s[pending] for s in state], pending[pending]
    return out


def _igam_fac(a: float, x: np.ndarray, log_gamma_a: float) -> np.ndarray:
    """x^a e^-x / Gamma(a); by the Lanczos sum where |a - x| <= 0.4 a."""
    with np.errstate(under="ignore"):
        ax = a * np.log(x) - x - log_gamma_a
        out = np.where(ax < -_MAXLOG, 0.0, np.exp(ax))
        near = np.abs(a - x) <= 0.4 * a
        fac = a + _LANCZOS_G - 0.5
        res = math.sqrt(fac / math.e) / (_polevl(a, _LANCZOS_NUM) / _polevl(a, _LANCZOS_DEN))
        out[near] = res * (np.exp(a - x[near]) * np.power(x[near] / fac, a))
    return out


def gammainc(d: int, x):
    """P(a, x) for a = 1/d, integer d >= 2 (Cephes igam and igamc at a < 1); nan at x < 0.

    x <= 1 takes igam's power series; 1 < x <= 1.1 is 1 - igamc's series and
    x > 1.1 is 1 - igamc's continued fraction.  Q(a, x) <= x^(a-1) e^-x / Gamma(a),
    so where that bound is below 2^-54 the result is exactly 1.0 and the
    point never iterates.
    """
    a, lg1p = 1.0 / d, log_gamma_1p(d)
    lg = lg1p - math.log(a)              # ln Gamma(a); scipy's bits at d = 4, 6, 8
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        saturated = (a - 1.0) * np.log(flat) - flat - lg < -54.0 * math.log(2.0)
    out = np.where(saturated, 1.0, np.where(flat == 0.0, 0.0, np.nan))
    live = np.isnan(out) & (flat > 0.0)
    ser, mid, cf = live & (flat <= 1.0), live & (flat > 1.0) & (flat <= 1.1), live & (flat > 1.1)
    r = a

    def series(state):                   # igam_series: 1 + x/(a+1) + x^2/((a+1)(a+2)) + ...
        nonlocal r
        x, c, total = state
        r += 1.0
        c = c * (x / r)
        total = total + c
        return total, c <= _MACHEP * total, (x, c, total)

    xs = flat[ser]
    out[ser] = _iterate(series, (xs, np.ones_like(xs), np.ones_like(xs))) \
        * _igam_fac(a, xs, lg) / a
    k = 0

    def igamc_series(state):             # sum_k (-x)^k / (k! (a + k)), k >= 1
        nonlocal k
        x, fac, total = state
        k += 1
        fac = fac * (-x / k)
        term = fac / (a + k)
        total = total + term
        return total, np.abs(term) <= _MACHEP * np.abs(total), (x, fac, total)

    xs = flat[mid]
    log_x = np.log(xs)
    out[mid] = 1.0 - (-np.expm1(a * log_x - lg1p) - np.exp(a * log_x - lg)
                      * _iterate(igamc_series, (xs, np.ones_like(xs), np.zeros_like(xs))))
    y, c = 1.0 - a, 0.0

    def fraction(state):                 # Legendre's continued fraction for Q, igamc's recurrence
        nonlocal y, c
        z, ans, pkm2, pkm1, qkm2, qkm1 = state
        c += 1.0
        y += 1.0
        z = z + 2.0
        pk, qk = pkm1 * z - pkm2 * (y * c), qkm1 * z - qkm2 * (y * c)
        ratio = pk / qk                  # qk > 0 at x > 0: igamc's qk == 0 guard never fires
        done = np.abs((ans - ratio) / ratio) <= _MACHEP
        if c % 32 == 0:                  # any power-of-two rescale keeps igamc's bits
            scale = np.ldexp(1.0, -np.frexp(qk)[1])
            pkm1, pk, qkm1, qk = pkm1 * scale, pk * scale, qkm1 * scale, qk * scale
        return ratio, done, (z, ratio, pkm1, pk, qkm1, qk)

    xs = flat[cf]
    z = xs + (1.0 - a) + 1.0
    out[cf] = 1.0 - _iterate(fraction, (z, (xs + 1.0) / (z * xs), np.ones_like(xs), xs + 1.0,
                                        xs, z * xs)) * _igam_fac(a, xs, lg)
    return out.reshape(x.shape)
