"""Policy layer tests: specs, validation, composition, compiler."""

import pytest

from repro.analysis.rules import detect_rule_conflicts
from repro.control.policy import (
    AppPeeringSpec,
    BlackholingSpec,
    CompositionPlan,
    ForwardingSpec,
    LoadBalancingSpec,
    PolicyGenerator,
    RateLimitingSpec,
    SourceRoutingSpec,
    compile_policies,
    parse_policy_config,
    parse_rate,
    plan_composition,
    validate_composition,
    validate_or_raise,
    validate_spec,
)
from repro.errors import PolicyConflictError, PolicyValidationError
from repro.net.generators import full_mesh, tree
from repro.openflow import ApplyActions, Drop, Match, Output, attach_pipeline


@pytest.fixture
def topo():
    return tree(2, 2)


class TestParseRate:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("500 Mbps", 500e6),
            ("1.5Gbps", 1.5e9),
            ("100kbps", 100e3),
            ("2 Tbps", 2e12),
            ("42", 42.0),
            (1000, 1000.0),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_rate(text) == pytest.approx(expected)

    @pytest.mark.parametrize("bad", ["", "fast", "-5 Mbps", 0, -1])
    def test_rejected_forms(self, bad):
        with pytest.raises(PolicyValidationError):
            parse_rate(bad)


class TestParseConfig:
    def test_figure2_style_config(self):
        specs = parse_policy_config(
            {
                "forwarding": "shortest-path",
                "load_balancing": {"mode": "ecmp"},
                "application_peering": [
                    {"src": "h1", "dst": "h3", "app": "http"}
                ],
                "rate_limiting": [
                    {"src": "h2", "dst": "h4", "rate": "500 Mbps"}
                ],
                "blackholing": [{"target": "10.0.0.5"}],
            }
        )
        kinds = [s.kind for s in specs]
        assert kinds == [
            "forwarding",
            "load_balancing",
            "application_peering",
            "rate_limiting",
            "blackholing",
        ]
        limit = [s for s in specs if isinstance(s, RateLimitingSpec)][0]
        assert limit.rate_bps == 500e6

    def test_unknown_key_rejected(self):
        with pytest.raises(PolicyValidationError):
            parse_policy_config({"qos": {}})


class TestValidation:
    def test_good_specs_pass(self, topo):
        validate_spec(ForwardingSpec(), topo)
        validate_spec(LoadBalancingSpec(), topo)
        validate_spec(AppPeeringSpec(src="h1", dst="h4", app="http"), topo)
        validate_spec(RateLimitingSpec(src="h1", dst="h4", rate_bps=1e6), topo)
        validate_spec(BlackholingSpec(target="h4"), topo)

    @pytest.mark.parametrize(
        "spec",
        [
            ForwardingSpec(mode="magic"),
            ForwardingSpec(match_on="vlan"),
            LoadBalancingSpec(mode="magic"),
            LoadBalancingSpec(threshold=0),
            AppPeeringSpec(src="h1", dst="h4", app="gopher"),
            RateLimitingSpec(rate_bps=0),
            BlackholingSpec(target="h4", direction="sideways"),
            BlackholingSpec(target="not-an-address"),
            SourceRoutingSpec(src="h1", dst="h4", path=("h1", "h4")),
        ],
    )
    def test_bad_specs_rejected(self, topo, spec):
        with pytest.raises(PolicyValidationError):
            validate_spec(spec, topo)

    def test_unknown_host_rejected(self, topo):
        with pytest.raises(Exception):
            validate_spec(AppPeeringSpec(src="ghost", dst="h4"), topo)

    def test_path_contiguity_checked(self, topo):
        spec = SourceRoutingSpec(src="h1", dst="h4", path=("h1", "s3", "h4"))
        with pytest.raises(PolicyValidationError):
            validate_spec(spec, topo)


class TestComposition:
    def test_duplicate_forwarding_conflicts(self, topo):
        conflicts = validate_composition(
            [ForwardingSpec(), ForwardingSpec(mode="learning")], topo
        )
        assert any(c.severity == "error" for c in conflicts)

    def test_learning_plus_lb_conflicts(self, topo):
        conflicts = validate_composition(
            [ForwardingSpec(mode="learning"), LoadBalancingSpec()], topo
        )
        assert any("learning" in c.message for c in conflicts)

    def test_blackhole_swallowing_steering_warns(self, topo):
        conflicts = validate_composition(
            [
                BlackholingSpec(target="h4"),
                AppPeeringSpec(src="h1", dst="h4", app="http"),
            ],
            topo,
        )
        assert any(c.severity == "warning" for c in conflicts)

    def test_conflicting_rate_limits_error(self, topo):
        conflicts = validate_composition(
            [
                RateLimitingSpec(src="h1", dst="h4", rate_bps=1e6),
                RateLimitingSpec(src="h1", dst="h4", rate_bps=2e6),
            ],
            topo,
        )
        assert any(c.severity == "error" for c in conflicts)

    def test_conflicting_source_routes_error(self, topo):
        conflicts = validate_composition(
            [
                SourceRoutingSpec(src="h1", dst="h4", path=("h1", "s2", "h4")),
                SourceRoutingSpec(src="h1", dst="h4", path=("h1", "s3", "h4")),
            ],
            topo,
        )
        assert any(c.severity == "error" for c in conflicts)

    def test_validate_or_raise_raises_on_errors(self, topo):
        with pytest.raises(PolicyConflictError):
            validate_or_raise(
                [ForwardingSpec(), ForwardingSpec(mode="learning")], topo
            )

    def test_clean_composition_returns_warnings_only(self, topo):
        warnings = validate_or_raise(
            [ForwardingSpec(), RateLimitingSpec(src="h1", dst="h4", rate_bps=1e6)],
            topo,
        )
        assert warnings == []


class TestCompositionPlan:
    def test_single_table_without_conditioning(self):
        plan = plan_composition([ForwardingSpec(), BlackholingSpec(target="x")])
        assert plan.num_tables == 1
        assert plan.table_for("blackholing") == 0

    def test_rate_limiting_gets_its_own_stage(self):
        plan = plan_composition(
            [ForwardingSpec(), RateLimitingSpec(rate_bps=1e6)]
        )
        assert plan.num_tables == 2
        assert plan.table_for("rate_limiting") == 0
        assert plan.forwarding_table == 1

    def test_priority_bands_are_ordered(self):
        plan = plan_composition([ForwardingSpec()])
        assert (
            plan.priority_for("blackholing")
            > plan.priority_for("application_peering")
            > plan.priority_for("source_routing")
            > plan.priority_for("forwarding") - 1
        )

    def test_unknown_kind_lookup(self):
        plan = plan_composition([ForwardingSpec()])
        with pytest.raises(KeyError):
            plan.table_for("rate_limiting")


class TestCompiler:
    def test_compiles_figure2_config(self, topo):
        compiled = compile_policies(
            topo,
            {
                "forwarding": {"mode": "shortest-path", "match_on": "ip_dst"},
                "rate_limiting": [{"src": "h2", "dst": "h4", "rate": "2 Mbps"}],
                "blackholing": [{"target": "h3"}],
            },
        )
        names = [a.name for a in compiled.controller.apps]
        assert "blackhole" in names
        assert "rate-limiter" in names
        assert "shortest-path" in names
        assert compiled.num_tables == 2

    def test_default_forwarding_added_with_note(self, topo):
        compiled = compile_policies(topo, {})
        assert any("defaulted" in n for n in compiled.notes)
        assert any(a.name == "shortest-path" for a in compiled.controller.apps)

    def test_lb_subsumes_explicit_forwarding(self, topo):
        compiled = compile_policies(
            topo,
            {"forwarding": "shortest-path", "load_balancing": {"mode": "ecmp"}},
        )
        names = [a.name for a in compiled.controller.apps]
        assert "ecmp-lb" in names
        assert "shortest-path" not in names
        assert any("subsumed" in n for n in compiled.notes)

    def test_reactive_lb_selected(self, topo):
        compiled = compile_policies(
            topo, {"load_balancing": {"mode": "reactive", "threshold": 0.5}}
        )
        assert any(a.name == "reactive-lb" for a in compiled.controller.apps)

    def test_conflicting_config_raises(self, topo):
        with pytest.raises(PolicyConflictError):
            compile_policies(
                topo,
                {
                    "forwarding": "learning",
                    "load_balancing": {"mode": "ecmp"},
                },
            )

    def test_rate_limit_scoped_to_source_edge(self, topo):
        compiled = compile_policies(
            topo,
            {
                "forwarding": "shortest-path",
                "rate_limiting": [{"src": "h1", "dst": "h4", "rate": "1 Mbps"}],
            },
        )
        app = compiled.controller.app("rate-limiter")
        # h1 attaches to its leaf switch; the meter lives there only.
        peer = topo.host("h1").uplink_port.peer.node.name
        assert list(app.limits[0].scope) == [peer]

    def test_unresolvable_blackhole_target(self, topo):
        with pytest.raises(PolicyValidationError):
            compile_policies(
                topo,
                {"blackholing": [{"target": "definitely-not-a-thing"}]},
            )


class TestRuleConflictDetection:
    def test_same_priority_overlap_with_divergent_actions(self):
        topo = full_mesh(2, hosts_per_switch=1)
        switch = topo.switch("s1")
        pipeline = attach_pipeline(switch)
        pipeline.install(Match(), (ApplyActions((Output(1),)),), priority=5)
        pipeline.install(
            Match(tp_dst=80), (ApplyActions((Drop(),)),), priority=5
        )
        findings = detect_rule_conflicts(pipeline)
        assert len(findings) == 1
        assert findings[0]["priority"] == 5

    def test_different_priorities_not_flagged(self):
        topo = full_mesh(2, hosts_per_switch=1)
        pipeline = attach_pipeline(topo.switch("s1"))
        pipeline.install(Match(), (ApplyActions((Output(1),)),), priority=5)
        pipeline.install(
            Match(tp_dst=80), (ApplyActions((Drop(),)),), priority=6
        )
        assert detect_rule_conflicts(pipeline) == []
