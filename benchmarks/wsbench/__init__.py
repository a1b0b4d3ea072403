"""Benchmark harness for the ``wshrink`` package (see ``benchmarks/README.md``)."""
