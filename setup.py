"""Build hook for the three optional compiled kernels.

The package is pure Python; three hand-written C extensions accelerate inner
loops: `harmonicgap._screen_c`, the record scan's screen,
`harmonicgap._weyl_c`, the fixed-point Taylor evaluation and power step of
`counting`'s certified Weyl sums, and `harmonicgap._sum_c`, the prime split
of `_intops`' exact segment sums on 64-bit limbs.  Without a C compiler the
build proceeds without them, and the pure-Python twins are selected at
import time.
"""

from setuptools import Extension, setup


def kernel(name: str) -> Extension:
    return Extension(
        f"harmonicgap.{name}",
        [f"src/harmonicgap/{name}.c"],
        extra_compile_args=["-O2"],
        optional=True,
    )


setup(ext_modules=[kernel("_screen_c"), kernel("_weyl_c"), kernel("_sum_c")])
