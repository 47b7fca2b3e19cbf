"""The repo's performance benchmark: four workloads, two clocks, and a
bench-side layer trace.  ``BENCHMARK.json`` at the repo root is the
contract; ``perf/README.md`` is the glossary."""
