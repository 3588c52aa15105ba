"""Build hook for the optional compiled screening kernel.

The package is pure Python; `harmonicgap._screen_c` is a hand-written C
extension that accelerates the record-scan inner loop.  Without a C compiler
the build proceeds without it and the pure-Python kernel is selected at
import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "harmonicgap._screen_c",
            ["src/harmonicgap/_screen_c.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
