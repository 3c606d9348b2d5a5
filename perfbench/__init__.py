"""Benchmark of the laptail estimate pipeline, end to end and per layer."""
