"""Exact engine for generating-function transformations over Q(r)."""
