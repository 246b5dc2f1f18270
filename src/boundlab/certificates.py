"""Replayable certificates: the public path of ``boundlab._certs``, where
each operation imports its own layers (the CLI imports that module).

Importing this one also loads the open layers, as it always has: code that
wraps their functions after import, like perfbench's tracer, finds them in
``sys.modules``."""

from . import antispecker, fusion, seq_opens, terms  # noqa: F401
from ._certs import CERT_FORMAT, build, verify

__all__ = ["CERT_FORMAT", "build", "verify"]
