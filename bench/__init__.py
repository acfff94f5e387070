"""The evolalg benchmark: seeded closed-loop workloads; see bench/README.md."""
