"""pjac: construct, verify and compare planar maps with prescribed Jacobian."""

__version__ = "0.1.0"
