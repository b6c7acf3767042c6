"""Deterministic simulator and cost model for three-tier task offloading.

Tasks generated by pedestrian users are dispatched by a controller at the gNB
to the cloud, to an edge server, or to parked-and-moving vehicles discovered
through beacons. The simulator reproduces per-task latency decompositions,
failure taxonomies and dispatch shares; the cost model compares owning edge
hardware against paying vehicle owners per request.
"""

__version__ = "0.1.0"
