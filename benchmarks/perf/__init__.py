"""The repo's performance benchmark (see README.md and ../../BENCHMARK.json)."""
