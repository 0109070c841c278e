"""Stdlib-only benchmark for monarel; run perfbench/run.py."""
