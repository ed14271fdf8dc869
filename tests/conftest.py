"""Shared test setup: put this directory on ``sys.path`` so every test
module, whichever subdirectory it lives in, imports the shared helpers
here (:mod:`naive_reference`) by module name."""

import sys
from pathlib import Path

_HERE = str(Path(__file__).resolve().parent)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)
