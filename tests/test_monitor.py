import pytest

from hepcluster import compute_rates, health_check, observe, render_summary
from hepcluster.monitor import RateReport, TrafficSample, take_sample


def sample(ts, **counters):
    return TrafficSample(timestamp=ts, counters={
        (node, "eth0"): rxtx for node, rxtx in counters.items()})


class TestComputeRates:
    def test_simple_rate(self):
        report = compute_rates(sample(0.0, node01=(1000, 1000)),
                               sample(2.0, node01=(3000, 3000)))
        assert report.rates[("node01", "eth0")] == (1000.0, 1000.0)

    def test_counter_reset_clamps_to_zero(self):
        report = compute_rates(sample(0.0, node01=(5000, 5000)),
                               sample(2.0, node01=(100, 100)))
        assert report.rates[("node01", "eth0")] == (0.0, 0.0)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            compute_rates(sample(1.0, node01=(0, 0)),
                          sample(1.0, node01=(10, 10)))

    def test_rates_nonnegative(self):
        report = compute_rates(
            sample(0.0, node01=(100, 900), node02=(50, 50)),
            sample(5.0, node01=(600, 400), node02=(50, 60)))
        for rx, tx in report.rates.values():
            assert rx >= 0 and tx >= 0

    def test_constant_profile_exact(self, paper_spec, converged_fleet):
        s0 = take_sample(observe(converged_fleet), converged_fleet.clock)
        converged_fleet.sim_tick(2.0, {h: 1000.0
                                       for h in converged_fleet.hostnames()})
        s1 = take_sample(observe(converged_fleet), converged_fleet.clock)
        report = compute_rates(s0, s1)
        for key, (rx, tx) in report.rates.items():
            assert rx == 1000.0 and tx == 1000.0

    def test_sample_skips_unreachable_node(self, converged_fleet):
        converged_fleet.inject_fault("node02", "unreachable")
        s = take_sample(observe(converged_fleet), converged_fleet.clock)
        assert sorted(s.counters) == [("node00", "eth0"), ("node00", "eth1"),
                                      ("node01", "eth0"), ("node03", "eth0")]


class TestHealthCheck:
    def test_converged_all_up(self, paper_spec, converged_fleet):
        health = health_check(observe(converged_fleet), paper_spec)
        assert set(health.values()) == {"up"}

    def test_missing_mount_is_degraded(self, paper_spec, converged_fleet):
        converged_fleet.nodes["node02"].mounts.clear()
        health = health_check(observe(converged_fleet), paper_spec)
        assert health["node02"] == "degraded"
        assert health["node01"] == "up"

    def test_crashed_is_unreachable(self, paper_spec, converged_fleet):
        converged_fleet.inject_fault("node03", "crash")
        health = health_check(observe(converged_fleet), paper_spec)
        assert health["node03"] == "unreachable"

    def test_master_needs_no_mount(self, paper_spec, converged_fleet):
        health = health_check(observe(converged_fleet), paper_spec)
        assert health["node00"] == "up"


class TestRenderSummary:
    def test_empty_report_header_only(self):
        text = render_summary(RateReport())
        assert len(text.splitlines()) == 1
        assert text.splitlines()[0].split() == \
            ["NODE", "IFACE", "RX/s", "TX/s", "HEALTH"]

    def test_row_per_interface(self, paper_spec, converged_fleet):
        s0 = take_sample(observe(converged_fleet), 0.0)
        converged_fleet.sim_tick(1.0)
        s1 = take_sample(observe(converged_fleet), 1.0)
        report = compute_rates(s0, s1)
        report.health = health_check(observe(converged_fleet), paper_spec)
        rows = render_summary(report).splitlines()[1:]
        # node00 has eth0+eth1, workers eth0 each
        assert len(rows) == 5
        assert rows[0].startswith("node00")

    def test_byte_identical_for_equal_reports(self):
        r1 = RateReport(rates={("node01", "eth0"): (10.0, 20.0)},
                        health={"node01": "up"})
        r2 = RateReport(rates={("node01", "eth0"): (10.0, 20.0)},
                        health={"node01": "up"})
        assert render_summary(r1) == render_summary(r2)

    def test_distinct_rates_distinct_output(self):
        r1 = RateReport(rates={("node01", "eth0"): (10.0, 20.0)})
        r2 = RateReport(rates={("node01", "eth0"): (11.0, 20.0)})
        assert render_summary(r1) != render_summary(r2)

    def test_unreachable_node_gets_placeholder_row(self):
        report = RateReport(rates={("node01", "eth0"): (1.0, 1.0)},
                            health={"node01": "up", "node02": "unreachable"})
        rows = render_summary(report).splitlines()
        assert any("node02" in row and "unreachable" in row for row in rows)

    def test_sorted_rows(self):
        report = RateReport(rates={
            ("node02", "eth0"): (1.0, 1.0),
            ("node01", "eth1"): (1.0, 1.0),
            ("node01", "eth0"): (1.0, 1.0),
        })
        rows = render_summary(report).splitlines()[1:]
        keys = [tuple(r.split()[:2]) for r in rows]
        assert keys == sorted(keys)
