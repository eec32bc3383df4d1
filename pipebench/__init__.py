"""Pipeline benchmark: fixed-work workloads, references and a traced
layer pass over the reproduction's public entry points."""
