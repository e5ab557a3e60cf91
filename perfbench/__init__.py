"""Benchmark harness for drowsemon; see README.md in this directory."""
