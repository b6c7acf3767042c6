"""Deterministic simulator and cost model for three-tier task offloading.

Tasks generated by pedestrian users are dispatched by a controller at the gNB
to the cloud, to an edge server, or to parked-and-moving vehicles discovered
through beacons. The simulator reproduces per-task latency decompositions,
failure taxonomies and dispatch shares; the cost model compares owning edge
hardware against paying vehicle owners per request.
"""

from .channel import (
    ChannelConfig,
    Delivered,
    LinkClass,
    LinkParams,
    Lost,
    lena_calibrated,
    leg_outcome,
    loss_probability,
    transfer_time,
)
from .compute import (
    EdgeState,
    cloud_fixed_roundtrip,
    elaboration_time,
    vehicle_offer,
)
from .config import (
    ConfigError,
    SweepSpec,
    apply_axis,
    parse_cost_params,
    parse_run_config,
    parse_sweep_spec,
    serialize_cost_params,
    serialize_run_config,
)
from .controller import (
    CLOUD,
    EC_FIRST,
    EDGE,
    Registry,
    VCC_FIRST,
    VEHICLE,
    select_vccfirst,
)
from .costmodel import (
    BreakdownRow,
    CostParams,
    capex_ec,
    cost_breakdown,
    opex_ec,
    opex_vcc,
    savings,
    total_costs,
    vcc_bonus,
)
from .engine import (
    Aggregates,
    FAILURE_LEGS,
    OffloadRecord,
    REPLICATION_SEEDS,
    RunConfig,
    generate_arrivals,
    run,
    summarize,
)
from .scenario import (
    ScenarioGeometry,
    VehicleState,
    build_scenario,
    in_coverage,
    partial_coverage,
    point_on_loop,
    position_at,
    total_coverage,
)
from .stats import AnovaResult, anova_oneway, f_sf, percentile, reg_inc_beta

__version__ = "0.1.0"
