"""twinfuse: scan fusion, camera registration, tracking, and digital-twin
scene assembly with a built-in synthetic ground-truth oracle.

The submodules are the API, e.g. ``from twinfuse.fusion import fuse_scans``."""

__version__ = "0.1.0"
