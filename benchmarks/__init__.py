"""Benchmark package (makes ``benchmarks.harness`` importable from the repo root)."""
