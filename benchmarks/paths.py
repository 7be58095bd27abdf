"""Put the checkout's `src/` first on `sys.path`, so the benchmark measures
the package in the same checkout and never an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def package_in_checkout() -> bool:
    """True when `cubecensus` would be (or was) imported from SRC."""
    module = sys.modules.get("cubecensus")
    if module is None:
        return (SRC / "cubecensus" / "__init__.py").is_file()
    return Path(module.__file__).resolve().is_relative_to(SRC)
