"""One set-up of the library, as every benchmark process does it.

Run as a script it imports the library, warms up each engine once and
prints the monotonic clock in nanoseconds; the parent that started it
subtracts its own clock reading from just before the start, which gives
the time from interpreter start to a ready library.
"""

import time


def warm_up() -> None:
    """Import every layer and run one call of each engine."""
    from cornellbound import cli  # noqa: F401  (imports every layer)
    from cornellbound.model import DimensionlessCase
    from cornellbound.numerov import Grid, solve
    from cornellbound.phase_integral import quantize

    solve(DimensionlessCase(B=2.0, l=0), Grid(1e-5, 20.0, 64), 3)
    quantize(DimensionlessCase(B=2.0, l=0, s=0, j=1))


if __name__ == "__main__":
    warm_up()
    print(time.monotonic_ns())
