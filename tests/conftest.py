"""Make the in-tree package importable without installing it.

`src` goes on this interpreter's sys.path and on the PYTHONPATH that the
CLI subprocess tests inherit, so a plain `python -m pytest` works from a
fresh checkout.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, _paths)])
