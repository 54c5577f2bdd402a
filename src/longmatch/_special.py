"""Numpy ports of the special functions and the normality test the package uses.

- `ndtr` and `ndtri` transcribe Moshier's Cephes `ndtr.c` and `ndtri.c`
  (Cephes Math Library, 1989): the same rational approximations, evaluated
  in the same order, with `log` and `exp` taken from the C library through
  `math`: each result comes from the same sequence of IEEE operations as
  the C code's, so written quantiles, bounds and p-values keep every bit.
- `chdtrc` and `betainc` are the regularized upper incomplete gamma and the
  regularized incomplete beta by a power series plus a modified-Lentz
  continued fraction (Press et al., *Numerical Recipes*, 3rd ed., 6.2 and
  6.4), to about 1e-12 relative or better.
- `shapiro` is the Shapiro-Wilk W of Royston's AS R94 (*Applied
  Statistics* 44(4), 1995) for complete samples, with the AS 111 normal
  quantiles for its coefficients.
"""

from __future__ import annotations

import math

import numpy as np

SHAPIRO_MAX_N = 5000

_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_EXP_M2 = 0.13533528323661269189   # exp(-2)
_S2PI = 2.50662827463100050242     # sqrt(2 pi)

# erf on |x| <= 1: x T(x^2) / U(x^2)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc on 1 <= x < 8: exp(-x^2) P(x) / Q(x); on x >= 8: exp(-x^2) R(x) / S(x)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)

# ndtri on |y - 0.5| <= 0.5 - exp(-2)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
# ndtri tails, in z = 1 / sqrt(-2 log y): sqrt(-2 log y) in [2, 8) and [8, 64)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N], by Horner's rule as Cephes evaluates it."""
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _p1evl(x, coef):
    """_polevl with an implied leading coefficient of 1."""
    out = x + coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _libm(fn, x: np.ndarray) -> np.ndarray:
    # numpy's own log and exp may round differently from the C library
    return np.array([fn(v) for v in x.tolist()], dtype=np.float64)


def _erf(x: np.ndarray) -> np.ndarray:
    """erf on |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: np.ndarray) -> np.ndarray:
    """erfc on a >= 1/sqrt(2)."""
    out = np.zeros_like(a)
    near = a < 1.0
    out[near] = 1.0 - _erf(a[near])
    z = -a * a
    far = ~near & ~(z < -_MAXLOG)   # erfc underflows to 0 past MAXLOG
    x = a[far]
    e = _libm(math.exp, z[far])
    mid = x < 8.0
    p = np.where(mid, _polevl(x, _ERFC_P), _polevl(x, _ERFC_R))
    q = np.where(mid, _p1evl(x, _ERFC_Q), _p1evl(x, _ERFC_S))
    out[far] = (e * p) / q
    return out


def ndtr(a):
    """Standard normal CDF: Cephes `ndtr`, to the last bit."""
    a = np.asarray(a, dtype=np.float64)
    flat = a.ravel()
    x = flat * _SQRT1_2
    z = np.abs(x)
    out = np.empty_like(flat)
    inner = z < _SQRT1_2
    out[inner] = 0.5 + 0.5 * _erf(x[inner])
    outer = ~inner
    y = 0.5 * _erfc(z[outer])
    out[outer] = np.where(x[outer] > 0, 1.0 - y, y)
    return out.reshape(a.shape)[()]


def ndtri(y0):
    """Standard normal quantile: Cephes `ndtri`, to the last bit."""
    y0 = np.asarray(y0, dtype=np.float64)
    flat = y0.ravel()
    out = np.full_like(flat, np.nan)
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    upper = flat > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - flat, flat)

    center = y > _EXP_M2
    yc = y[center] - 0.5
    y2 = yc * yc
    out[center] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _S2PI

    tail = (y > 0.0) & (y <= _EXP_M2)
    x = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    x0 = x - _libm(math.log, x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0,
                  z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1),
                  z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2))
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out.reshape(y0.shape)[()]


_FPMIN = 1e-300
_EPS = 1e-15
_MAXIT = 100_000


def _lentz(terms) -> float:
    """The continued fraction a1 / (b1 + a2 / (b2 + ...)) of the terms
    (a_k, b_k) = terms(k), k = 1, 2, ..., by the modified Lentz method."""
    f = c = _FPMIN
    d = 0.0
    for k in range(1, _MAXIT):
        a, b = terms(k)
        d = b + a * d
        d = 1.0 / (d if abs(d) > _FPMIN else _FPMIN)
        c = b + a / c
        c = c if abs(c) > _FPMIN else _FPMIN
        f *= c * d
        if abs(c * d - 1.0) < _EPS:
            return f
    raise ArithmeticError("continued fraction did not converge")


def _gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0."""
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:   # series for P(a, x) (NR 6.2.5), then Q = 1 - P
        term = total = 1.0 / a
        k = a
        while abs(term) > abs(total) * _EPS:
            k += 1.0
            term *= x / k
            total += term
        return 1.0 - total * front
    # Legendre's continued fraction for Q in its even form (NR 6.2.7)
    return front * _lentz(lambda k: (1.0 if k == 1 else -(k - 1) * (k - 1 - a),
                                     x + 2 * k - 1 - a))


def chdtrc(df: float, x: float) -> float:
    """Upper tail P(X >= x) of a chi-square variable X with df > 0 degrees
    of freedom."""
    return _gammaincc(0.5 * df, 0.5 * float(x))


def _stirling_rest(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2)."""
    if z < 10.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + 0.5 * math.log(2.0 * math.pi))
    r = 1.0 / (z * z)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (
        1.0 / 1680.0 - r / 1188.0)))) / z


def _log_beta_front(a: float, b: float, x: float) -> float:
    """log(x^a (1 - x)^b / B(a, b)), written around x = a / (a + b) so that
    the large logs of Stirling's formula cancel analytically, not in floats."""
    s = a + b
    d = a - x * s   # (1 - x) s - b
    return (a * math.log1p(-d / a) + b * math.log1p(d / b)
            + 0.5 * math.log(a * b / s) - 0.5 * math.log(2.0 * math.pi)
            - (_stirling_rest(a) + _stirling_rest(b) - _stirling_rest(s)))


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) (NR 6.4.5), for x < (a + 1) / (a + b + 2)."""
    def terms(k):
        if k == 1:
            return 1.0, 1.0
        m, odd = divmod(k - 1, 2)
        if odd:
            return -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)), 1.0
        return m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)), 1.0
    return _lentz(terms)


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if x == 0.0 or x == 1.0:
        return float(x)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(_log_beta_front(a, b, x)) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(_log_beta_front(b, a, 1.0 - x)) * _beta_cf(b, a, 1.0 - x) / b


# AS R94 polynomial coefficients, constant term first
_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_SMALL = 1e-19


def _poly(c, x: float) -> float:
    """c[0] + c[1] x + ... + c[-1] x^(len(c) - 1), in AS 181.2's order."""
    p = x * c[-1]
    for cj in reversed(c[1:-1]):
        p = (p + cj) * x
    return c[0] + p


def _ppnd(p: np.ndarray) -> np.ndarray:
    """Normal quantiles for p < 1/2 by AS 111 (Beasley & Springer 1977), the
    approximation AS R94 builds its coefficients from."""
    q = p - 0.5
    r = q * q
    center = q * (((-25.44106049637 * r + 41.39119773534) * r - 18.61500062529) * r
                  + 2.50662823884) / ((((3.13082909833 * r - 21.06224101826) * r
                                        + 23.08336743743) * r - 8.47351093090) * r + 1.0)
    r = np.sqrt(-np.log(np.where(np.abs(q) > 0.42, p, 0.5)))
    tail = -((((2.32121276858 * r + 4.85014127135) * r - 2.29796479134) * r - 2.78718931138)
             / ((1.63706781897 * r + 3.54388924762) * r + 1.0))
    return np.where(np.abs(q) <= 0.42, center, tail)


def _sum(v: np.ndarray) -> float:
    return float(np.cumsum(v)[-1])


def _shapiro_coefficients(n: int) -> np.ndarray:
    """The n antisymmetric AS R94 weights, smallest order statistic first."""
    half = n // 2
    if n == 3:
        a = np.array([_SQRT1_2])
    else:
        m = _ppnd((np.arange(1, half + 1) - 0.375) / (n + 0.25))
        summ2 = 2.0 * _sum(m * m)
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_SW_C1, rsn) - m[0] / ssumm2
        if n > 5:
            a2 = -m[1] / ssumm2 + _poly(_SW_C2, rsn)
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
                            / (1.0 - 2.0 * a1 ** 2 - 2.0 * a2 ** 2))
            a = -m / fac
            a[1] = a2
        else:
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 ** 2))
            a = -m / fac
        a[0] = a1
    return np.concatenate([-a, np.zeros(n % 2), a[::-1]])


def shapiro(x) -> float:
    """Shapiro-Wilk W of a complete sample of 3 <= n <= SHAPIRO_MAX_N."""
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    if not 3 <= n <= SHAPIRO_MAX_N:
        raise ValueError(f"Shapiro-Wilk needs 3 <= n <= {SHAPIRO_MAX_N}, got {n}")
    y = np.sort(x) - x[n // 2]   # shifted by a central value, as the reference code is
    span = y[-1] - y[0]
    if span < _SW_SMALL:
        raise ValueError("Shapiro-Wilk needs a sample with nonzero range")
    coef = _shapiro_coefficients(n)
    # AS R94 accumulates each sum left to right; so does cumsum
    asa = coef - _sum(coef) / n
    xsx = y / span
    xsx -= _sum(xsx) / n
    ssa = _sum(asa * asa)
    ssx = _sum(xsx * xsx)
    sax = _sum(asa * xsx)
    # 1 - W, formed so that W near 1 keeps its digits
    ssassx = math.sqrt(ssa * ssx)
    w1 = (ssassx - sax) * (ssassx + sax) / (ssa * ssx)
    return 1.0 - w1
