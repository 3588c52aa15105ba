"""Shared fixtures."""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def screen_c(tmp_path_factory):
    """The C screening kernel, freshly built from src/ into a temp directory.

    Skips only when there is no C compiler.  With a compiler, a missing
    module is a failure: `optional=True` in setup.py turns build errors into
    warnings, so a broken kernel would otherwise pass unnoticed.
    """
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) found: the compiled screening kernel cannot be built")
    out = tmp_path_factory.mktemp("screen_c")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    built = out / "harmonicgap" / ("_screen_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not built.is_file():
        pytest.fail(f"{cc} exists but setup.py built no _screen_c:\n{proc.stdout}\n{proc.stderr}")
    spec = importlib.util.spec_from_file_location("harmonicgap._screen_c", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
