"""Structured index coding bounds and multi-access coded caching rates."""

__version__ = "0.1.0"
