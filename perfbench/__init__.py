"""Layered end-to-end benchmark of the RHEEM reproduction (see README.md)."""
