"""Protocol events on the observability bus and the orderings they obey."""

from repro.common.config import SystemConfig
from repro.core.harness import DagRiderDeployment
from repro.obs import Observability


def traced_deployment(seed=15):
    observability = Observability()
    dep = DagRiderDeployment(SystemConfig(n=4, seed=seed), observability=observability)
    assert dep.run_until_ordered(15)
    return dep, observability.bus


def of_kind(bus, kind, pid):
    return [event for event in bus.events if event.kind == kind and event.pid == pid]


class TestProtocolEventOrdering:
    def test_expected_kinds_present(self):
        _dep, bus = traced_deployment()
        assert {"vertex_added", "wave_ready", "commit", "a_deliver"} <= bus.kinds()

    def test_events_time_ordered(self):
        _dep, bus = traced_deployment()
        times = [event.time for event in bus.events]
        assert times == sorted(times)

    def test_every_delivery_preceded_by_commit(self):
        """a_deliver events only happen during a commit at that process."""
        _dep, bus = traced_deployment()
        for pid in range(4):
            deliveries = of_kind(bus, "a_deliver", pid)
            commits = of_kind(bus, "commit", pid)
            assert deliveries and commits
            first_commit = min(event.time for event in commits)
            assert min(e.time for e in deliveries) >= first_commit

    def test_commit_follows_its_wave_ready(self):
        _dep, bus = traced_deployment()
        for pid in range(4):
            ready_times = {
                event.get("wave"): event.time
                for event in of_kind(bus, "wave_ready", pid)
            }
            for commit in of_kind(bus, "commit", pid):
                assert commit.time >= ready_times[commit.get("wave")]

    def test_waves_signalled_in_order(self):
        _dep, bus = traced_deployment()
        for pid in range(4):
            waves = [e.get("wave") for e in of_kind(bus, "wave_ready", pid)]
            assert waves == sorted(waves)

    def test_commit_delivered_counts_match_log(self):
        dep, bus = traced_deployment()
        for node in dep.correct_nodes:
            traced = sum(
                event.get("delivered") for event in of_kind(bus, "commit", node.pid)
            )
            assert traced == len(node.ordered)
