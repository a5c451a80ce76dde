"""End-to-end benchmark of the SCL stack: seven workloads, host-speed-
normalised timings, and an outside-in per-layer trace.

See ``README.md`` in this directory for the metric and workload
definitions.  The harness reaches the system only through public entry
points, so a change that claims a gain never has to edit it.
"""
