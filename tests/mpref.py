"""High-precision (mpmath) twin of the closed forms, used as test oracle.

Re-implements the spherical waves, the layered-sphere amplitudes and
fields, and the small-cavity expansions in 50-digit arithmetic.
Double-precision results are checked against these values, and the
expansion-order fits are done on the mp values so that float rounding
cannot contaminate the smallest radii.
"""

import mpmath as mp

mp.mp.dps = 50

I = mp.mpc(0, 1)


def to_mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def j1(z):
    return mp.sin(z) / z ** 2 - mp.cos(z) / z


def h1_1(z):
    return -(mp.exp(I * z) / z) * (1 + I / z)


def h2_1(z):
    return -(mp.exp(-I * z) / z) * (1 - I / z)


def rj1(z):
    return mp.sin(z) - j1(z)


def rh1(z):
    return mp.exp(I * z) * (-I + 1 / z + I / z ** 2)


def rh2(z):
    return mp.exp(-I * z) * (I + 1 / z - I / z ** 2)


def sqrt_eps(eps):
    return mp.sqrt(to_mpc(eps))


def two_layer(eps1, eps2, r1, k0):
    """(c1, c2+) of the sphere-in-host geometry."""
    eps1, eps2 = to_mpc(eps1), to_mpc(eps2)
    z1 = sqrt_eps(eps1) * k0 * r1
    z2 = sqrt_eps(eps2) * k0 * r1
    den = eps1 * j1(z1) * rh1(z2) - eps2 * h1_1(z2) * rj1(z1)
    c1 = (eps2 * h1_1(z2) * rh1(z1) - eps1 * h1_1(z1) * rh1(z2)) / den
    c2p = I * eps2 / (z1 * den)
    return c1, c2p


def three_layer(eps1, eps2, eps3, r1, r2, k0):
    """(c1, c2+, c2-, c3+, b1, b2) of the sphere/shell/host geometry."""
    eps1, eps2, eps3 = to_mpc(eps1), to_mpc(eps2), to_mpc(eps3)
    k1, k2, k3 = (sqrt_eps(e) * k0 for e in (eps1, eps2, eps3))
    z11, z21, z22, z32 = k1 * r1, k2 * r1, k2 * r2, k3 * r2

    def inner(h, rh):
        return -I * z11 / eps2 * (
            eps1 * j1(z11) * rh(z21) - eps2 * h(z21) * rj1(z11))

    def outer(h, rh):
        return eps3 * h1_1(z32) * rh(z22) - eps2 * h(z22) * rh1(z32)

    a1, a2 = inner(h1_1, rh1), inner(h2_1, rh2)
    b1, b2 = outer(h1_1, rh1), outer(h2_1, rh2)
    den = a1 * b2 - a2 * b1
    c1 = ((b2 * h1_1(z21) - b1 * h2_1(z21)) / den - h1_1(z11)) / j1(z11)
    return c1, b2 / den, -b1 / den, -I * eps3 / z22 * 2 / den, b1, b2


def general_n(eps, radii, k0):
    """(c1, [c_l+], [c_l-]) of any layered stack, l = 2..N.

    Assembles the 2(N-1) continuity equations of f and [r f(r)]'/eps at
    every interface as one dense system, unknowns ordered c1, c2+, c2-,
    ..., cN+, with the source wave of the central layer on the right-hand
    side, and solves it by LU decomposition.
    """
    eps = [to_mpc(e) for e in eps]
    ks = [sqrt_eps(e) * k0 for e in eps]
    n = 2 * (len(eps) - 1)
    mat, rhs = mp.matrix(n, n), mp.matrix(n, 1)

    def col(layer, incoming):
        return 0 if layer == 1 else 2 * layer - 3 + incoming

    for i, r in enumerate(radii):
        zin, zout = ks[i] * r, ks[i + 1] * r
        ein, eout = eps[i], eps[i + 1]
        if i == 0:
            mat[0, 0], mat[1, 0] = j1(zin), rj1(zin) / ein
            rhs[0], rhs[1] = -h1_1(zin), -rh1(zin) / ein
        else:
            mat[2 * i, col(i + 1, 0)] = h1_1(zin)
            mat[2 * i, col(i + 1, 1)] = h2_1(zin)
            mat[2 * i + 1, col(i + 1, 0)] = rh1(zin) / ein
            mat[2 * i + 1, col(i + 1, 1)] = rh2(zin) / ein
        mat[2 * i, col(i + 2, 0)] = -h1_1(zout)
        mat[2 * i + 1, col(i + 2, 0)] = -rh1(zout) / eout
        if i + 2 < len(eps):
            mat[2 * i, col(i + 2, 1)] = -h2_1(zout)
            mat[2 * i + 1, col(i + 2, 1)] = -rh2(zout) / eout
    sol = mp.lu_solve(mat, rhs)
    c_plus = [sol[col(layer, 0)] for layer in range(2, len(eps) + 1)]
    c_minus = [sol[col(layer, 1)] for layer in range(2, len(eps))] + [0]
    return sol[0], c_plus, c_minus


def field(eps, k0, amplitudes, layer, r, theta, include_source=True):
    """(E_r, E_theta, B_phi) at (r, theta) in a layer, from the unscaled
    waves and amplitudes (c1, [c_l+], [c_l-]) as general_n returns them."""
    c1, c_plus, c_minus = amplitudes
    eps1, eps_l = to_mpc(eps[0]), to_mpc(eps[layer - 1])
    k_l = sqrt_eps(eps_l) * k0
    z = k_l * mp.mpf(r)
    if layer == 1:
        source = 1 if include_source else 0
        f = source * h1_1(z) + c1 * j1(z)
        df = source * rh1(z) + c1 * rj1(z)
    else:
        cp, cm = c_plus[layer - 2], c_minus[layer - 2]
        f = cp * h1_1(z) + cm * h2_1(z)
        df = cp * rh1(z) + cm * rh2(z)
    theta = mp.mpf(theta)
    pref = I * k0 * k0 * (eps1 / eps_l) * k_l
    return (pref * 2 * f / z * mp.cos(theta), -pref * df / z * mp.sin(theta),
            eps1 * mp.mpf(k0) ** 3 * f * mp.sin(theta))


def onsager_factor(eps):
    eps = to_mpc(eps)
    return abs(3 * eps / (2 * eps + 1)) ** 2


def p_eff_expansion(eps, x):
    """Small-cavity series of the transmitted amplitude over eps."""
    eps = to_mpc(eps)
    den = 2 * eps + 1
    quad = (10 * eps * eps - 9 * eps - 1) / (10 * den)
    cubic = mp.mpf(2) / 3 * eps * sqrt_eps(eps) * (eps - 1) / den
    return 3 * eps / den * (1 - quad * x ** 2 - I * cubic * x ** 3)


def gamma0_loc_expansion(eps, x):
    """Small-cavity series of the corrected infinite-medium rate."""
    eps = to_mpc(eps)
    root = sqrt_eps(eps)
    eta, kappa = root.real, root.imag
    abs2 = abs(eps) ** 2
    den2 = abs(2 * eps + 1) ** 2
    bracket = x ** -3 \
        + (28 * abs2 + 16 * eps.real + 1) / (5 * den2) / x \
        - 2 * (2 * kappa * abs2 + kappa * eps.real + eta * eps.imag) / den2
    return onsager_factor(eps) * (eta + eps.imag / abs2 * bracket)


def central_c1_re_expansion(eps, eps_ext, radius, k0, x):
    """Real part of the truncated small-cavity series of the central
    amplitude in the cavity/sphere/host geometry.

    Only the real part is meaningful: the decay rate is 1 + Re c1, and the
    truncation reproduces it to first order in x.
    """
    eps = to_mpc(eps)
    den = 2 * eps + 1
    _, _, _, _, b1, b2 = three_layer(1, eps, eps_ext, x / k0, radius, k0)
    nearfield = (-I * 9 * eps / den * x ** -3).real
    inverse = (-I * 9 * eps * (8 * eps + 1) / (5 * den ** 2) / x).real
    finite = (-9 * eps ** 2 * sqrt_eps(eps) / den ** 2
              * (b1 - b2) / (b1 + b2)).real
    return nearfield + inverse + finite - 1


def gamma_sc_loc(eps, eps_ext, radius, k0):
    """Corrected cavity-induced rate, from the exact bare-sphere amplitude."""
    eps = to_mpc(eps)
    c1, _ = two_layer(eps, eps_ext, radius, k0)
    return (9 * eps ** 2 * sqrt_eps(eps) / (2 * eps + 1) ** 2 * c1).real


def gamma_hat_total_three(eps, eps_ext, radius, k0, x):
    """Exact 1 + Re c1 for the cavity/sphere/host stack with k0 r_c = x."""
    c1, *_ = three_layer(1, eps, eps_ext, x / k0, radius, k0)
    return 1 + c1.real


def fit_slope(xs, ys):
    """Least-squares slope of log|y| vs log x, evaluated in mp."""
    pts = [(mp.log(mp.mpf(x)), mp.log(abs(y))) for x, y in zip(xs, ys)]
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] ** 2 for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    return float((n * sxy - sx * sy) / (n * sxx - sx ** 2))
