"""Policy generation: specs, validation, composition, and the compiler."""

from .compiler import CompiledPolicy, PolicyGenerator, compile_policies
from .composition import (
    PRIORITY_BANDS,
    CompositionPlan,
    Stage,
    plan_composition,
)
from .spec import (
    AppPeeringSpec,
    BlackholingSpec,
    ForwardingSpec,
    LoadBalancingSpec,
    PolicySpec,
    RateLimitingSpec,
    SourceRoutingSpec,
    parse_policy_config,
    parse_rate,
)
from .validation import (
    Conflict,
    validate_composition,
    validate_or_raise,
    validate_spec,
)

__all__ = [
    "AppPeeringSpec",
    "BlackholingSpec",
    "CompiledPolicy",
    "CompositionPlan",
    "Conflict",
    "ForwardingSpec",
    "LoadBalancingSpec",
    "PRIORITY_BANDS",
    "PolicyGenerator",
    "PolicySpec",
    "RateLimitingSpec",
    "SourceRoutingSpec",
    "Stage",
    "compile_policies",
    "parse_policy_config",
    "parse_rate",
    "plan_composition",
    "validate_composition",
    "validate_or_raise",
    "validate_spec",
]
