"""Benchmark harness for covert-decode; run ``python3 perfbench/run.py --help``."""
