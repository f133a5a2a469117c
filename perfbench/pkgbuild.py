"""Build the package from the checkout's sources into ``.bench_build``.

The build goes through the repository's own ``setup.py``, so a compiled
kernel that the build file knows how to make is built and measured too.  A
stamp of every source file decides whether the last build can be reused.
"""

from __future__ import annotations

import compileall
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_DIR = Path(".bench_build")


class BuildError(Exception):
    """The checkout has no buildable package."""


def _stamp(root: Path) -> str:
    digest = hashlib.sha256()
    files = [root / "setup.py", root / "pyproject.toml"]
    files += sorted(p for p in (root / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def build_package(root: Path = Path(".")) -> Path:
    """Return the directory to put on ``sys.path`` to import ``crewsolver``."""
    if not (root / "setup.py").is_file() or not (root / "src" / "crewsolver").is_dir():
        raise BuildError(f"no setup.py and src/crewsolver under {root.resolve()}")
    out = root / BUILD_DIR / "py"
    lib = out / "lib"
    stamp = _stamp(root)
    stamp_file = out / "stamp"
    if stamp_file.is_file() and stamp_file.read_text() == stamp and (lib / "crewsolver").is_dir():
        return lib.resolve()
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # egg_info is pointed at the build directory so that nothing is written
    # into the source tree.
    base = str(out.resolve())
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", base, "build", "--build-base", base],
        cwd=root,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0 or not (lib / "crewsolver").is_dir():
        raise BuildError(f"setup.py build failed:\n{proc.stderr}")
    compileall.compile_dir(str(lib), quiet=1)
    stamp_file.write_text(stamp)
    return lib.resolve()
