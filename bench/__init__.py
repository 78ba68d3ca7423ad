"""The repository benchmark: workloads, tracing and comparison (see bench/README.md)."""
