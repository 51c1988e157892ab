"""End-to-end and per-layer benchmark of bipsym; run ``perfbench/run.py``."""
