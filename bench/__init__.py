"""End-to-end and per-layer benchmark of the maic package (see README.md)."""
