"""Benchmark harness for baryiter: seeded workloads, oracle checks and layer tracing."""
