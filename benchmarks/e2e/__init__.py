"""bench_e2e: the all-layers-on end-to-end benchmark (see README.md)."""
