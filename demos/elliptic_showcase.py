"""Tour of the special-function layer.

Shows the pieces the phase-integral engine is built from: complete
elliptic integrals, complex-argument Jacobi functions and their identity
structure, and the principal inverse of sn.

Run:  python demos/elliptic_showcase.py
"""

import math

from cornellbound.special import ellip_E, ellip_K, ellip_Pi, inverse_sn, jacobi_complex


def main():
    m = 0.5
    print(f"K({m}) = {ellip_K(m):.15f}")
    print(f"E({m}) = {ellip_E(m):.15f}")
    print(f"Pi(0.4, 0.6) = {ellip_Pi(0.4, 0.6):.15f}")
    legendre = ellip_E(m) * ellip_K(1 - m) + ellip_E(1 - m) * ellip_K(m) - ellip_K(m) * ellip_K(1 - m)
    print(f"Legendre relation residual: {legendre - math.pi / 2:+.2e}")
    print()

    u = 0.8 + 0.4j
    sn, cn, dn = jacobi_complex(u, m)
    print(f"at u = {u}, m = {m}:")
    print(f"  sn = {sn:.12f}")
    print(f"  cn = {cn:.12f}")
    print(f"  dn = {dn:.12f}")
    print(f"  sn^2 + cn^2 - 1       = {sn * sn + cn * cn - 1:+.2e}")
    print(f"  m sn^2 + dn^2 - 1     = {m * sn * sn + dn * dn - 1:+.2e}")
    print()

    back = inverse_sn(sn, m)
    print(f"inverse_sn(sn(u)) = {back.as_complex():.12f}  (principal branch of u = {u})")


if __name__ == "__main__":
    main()
