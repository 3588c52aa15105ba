"""Every C source of the package is a kernel that setup.py builds."""

import pytest

from conftest import ROOT

SOURCES = sorted(p.stem for p in (ROOT / "src" / "harmonicgap").glob("*.c"))


@pytest.mark.parametrize("name", SOURCES)
def test_every_c_source_is_built(compiled, name):
    # `compiled` runs setup.py build_ext and fails when a module it asks for
    # was not built, so a source missing from setup.py fails here even when
    # no other test asks for its kernel
    assert compiled(name).__name__ == f"harmonicgap.{name}"
