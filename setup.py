"""Build hook for the two optional compiled kernels.

The package is pure Python; two hand-written C extensions accelerate inner
loops: `harmonicgap._screen_c`, the record scan's screen, and
`harmonicgap._weyl_c`, the fixed-point Taylor evaluation and power step of
`counting`'s certified Weyl sums.  Without a C compiler the build proceeds
without them, and the pure-Python twins are selected at import time.
"""

from setuptools import Extension, setup


def kernel(name: str) -> Extension:
    return Extension(
        f"harmonicgap.{name}",
        [f"src/harmonicgap/{name}.c"],
        extra_compile_args=["-O2"],
        optional=True,
    )


setup(ext_modules=[kernel("_screen_c"), kernel("_weyl_c")])
