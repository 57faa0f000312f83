"""The repository benchmark: host time of the simulator and the simulated
system's throughput and latency on four workloads (see README.md)."""
