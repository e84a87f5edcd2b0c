"""Unit tests for the shared bus and its arbitration policies."""

import pytest

from repro.cosim import Bus, BusRequest, CoSimConfig, FaultPlan, FaultRates


def request(ready, seq, msg_id=1, size=16, side="sw", sink=None):
    delivered = sink if sink is not None else []
    return BusRequest(
        ready_at=ready, sequence=seq, message_id=msg_id,
        payload_bytes=size, sender_side=side,
        deliver=lambda _request: delivered.append(seq),
    )


class TestConfig:
    def test_transfer_time_formula(self):
        config = CoSimConfig(bus_arbitration_ns=50, bus_ns_per_byte=1.25)
        assert config.bus_transfer_ns(16) == 70
        assert config.bus_transfer_ns(0) == 50

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            CoSimConfig(bus_policy="chaos").validated()

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CoSimConfig(sw_ns_per_op=-1).validated()


class TestBusFifo:
    def test_single_transfer_accounting(self):
        bus = Bus(CoSimConfig())
        bus.request(request(ready=0, seq=1, size=16))
        granted = bus.grant(0)
        assert granted is not None
        delivery, _req = granted
        assert delivery == 70
        assert bus.stats.messages == 1
        assert bus.stats.bytes_moved == 16
        assert bus.free_at == 70

    def test_busy_bus_defers(self):
        bus = Bus(CoSimConfig())
        bus.request(request(0, 1))
        bus.grant(0)
        bus.request(request(0, 2))
        assert bus.grant(10) is None          # still transferring
        delivery, _ = bus.grant(70)
        assert delivery == 140

    def test_fifo_orders_by_sequence(self):
        bus = Bus(CoSimConfig(bus_policy="fifo"))
        bus.request(request(0, 5))
        bus.request(request(0, 2))
        _d, chosen = bus.grant(0)
        assert chosen.sequence == 2

    def test_not_ready_requests_wait(self):
        bus = Bus(CoSimConfig())
        bus.request(request(ready=100, seq=1))
        assert bus.grant(0) is None
        assert bus.grant(99) is None
        assert bus.grant(100)[1].sequence == 1

    def test_wait_time_accounted(self):
        bus = Bus(CoSimConfig())
        bus.request(request(0, 1))
        bus.grant(0)
        bus.request(request(0, 2))
        bus.grant(70)
        assert bus.stats.wait_ns == 70


class TestArbitrationPolicies:
    def test_priority_prefers_low_message_id(self):
        bus = Bus(CoSimConfig(bus_policy="priority"))
        bus.request(request(0, 1, msg_id=9))
        bus.request(request(0, 2, msg_id=1))
        _d, chosen = bus.grant(0)
        assert chosen.message_id == 1

    def test_priority_fifo_within_level(self):
        bus = Bus(CoSimConfig(bus_policy="priority"))
        bus.request(request(0, 7, msg_id=1))
        bus.request(request(0, 3, msg_id=1))
        _d, chosen = bus.grant(0)
        assert chosen.sequence == 3

    def test_round_robin_alternates_sides(self):
        bus = Bus(CoSimConfig(bus_policy="round_robin"))
        bus.request(request(0, 1, side="hw"))
        bus.request(request(0, 2, side="sw"))
        bus.request(request(0, 3, side="hw"))
        _d, first = bus.grant(0)
        assert first.sender_side == "sw"     # last granted side starts "hw"
        _d, second = bus.grant(bus.free_at)
        assert second.sender_side == "hw"

    def test_utilization_bounded(self):
        bus = Bus(CoSimConfig())
        bus.request(request(0, 1, size=1000))
        bus.grant(0)
        assert 0.0 < bus.stats.utilization(10_000) <= 1.0
        assert bus.stats.utilization(0) == 0.0


class TestContentionAccounting:
    def test_wait_accumulates_under_backlog(self):
        # three requests ready at t=0; the second waits one transfer,
        # the third waits two (70 ns each at the default config)
        bus = Bus(CoSimConfig())
        for seq in (1, 2, 3):
            bus.request(request(0, seq))
        now = 0
        for expected_wait in (0, 70, 140):
            granted = bus.grant(now)
            _delivery, chosen = granted
            assert now - chosen.ready_at == expected_wait
            now = bus.free_at
        assert bus.stats.wait_ns == 0 + 70 + 140
        assert bus.stats.messages == 3
        assert bus.stats.busy_ns == 3 * 70

    def test_round_robin_keeps_alternating_under_contention(self):
        bus = Bus(CoSimConfig(bus_policy="round_robin"))
        for seq, side in enumerate(("hw", "hw", "sw", "sw", "hw", "sw"), 1):
            bus.request(request(0, seq, side=side))
        sides = []
        now = 0
        while bus.has_pending():
            _d, chosen = bus.grant(now)
            sides.append(chosen.sender_side)
            now = bus.free_at
        # strict alternation as long as both sides have pending work
        assert sides == ["sw", "hw", "sw", "hw", "sw", "hw"]

    def test_backlogged_bus_still_moves_every_byte(self):
        bus = Bus(CoSimConfig())
        total = 0
        for seq in range(1, 6):
            bus.request(request(0, seq, size=seq * 8))
            total += seq * 8
        now = 0
        while bus.has_pending():
            bus.grant(now)
            now = bus.free_at
        assert bus.stats.bytes_moved == total


class TestBusFaultPath:
    def grant_all(self, bus):
        granted = []
        now = 0
        while bus.has_pending():
            delivery, chosen = bus.grant(now)
            granted.append((delivery, chosen))
            now = bus.free_at
        return granted

    def test_no_plan_leaves_requests_clean(self):
        bus = Bus(CoSimConfig())
        bus.request(request(0, 1))
        _d, chosen = bus.grant(0)
        assert chosen.fault is None
        assert bus.fault_stats.injected == 0

    def test_certain_drop_marks_every_grant(self):
        plan = FaultPlan(seed=3, default=FaultRates(drop=1.0))
        bus = Bus(CoSimConfig(), fault_plan=plan)
        for seq in range(1, 5):
            bus.request(request(0, seq, size=8))
        for _delivery, chosen in self.grant_all(bus):
            assert chosen.fault is not None and chosen.fault.drop
        assert bus.fault_stats.injected_drops == 4
        # the bus still accounts the transfer: the wire was occupied
        assert bus.stats.messages == 4
        assert bus.stats.bytes_moved == 32

    def test_delay_fault_lands_late_but_frees_on_time(self):
        plan = FaultPlan(seed=3, default=FaultRates(delay=1.0, delay_ns=500))
        bus = Bus(CoSimConfig(), fault_plan=plan)
        bus.request(request(0, 1, size=16))
        delivery, chosen = bus.grant(0)
        assert chosen.fault.delay_ns == 500
        assert delivery == 70 + 500
        assert bus.free_at == 70          # next transfer is not blocked

    def test_fault_decisions_reproducible_across_buses(self):
        def decisions(seed):
            plan = FaultPlan.uniform(seed, 0.3)
            bus = Bus(CoSimConfig(), fault_plan=plan)
            for seq in range(1, 20):
                bus.request(request(0, seq, size=8))
            return [chosen.fault for _d, chosen in self.grant_all(bus)]

        assert decisions(11) == decisions(11)
        assert decisions(11) != decisions(12)

    def test_shared_stats_instance_is_used(self):
        plan = FaultPlan(seed=1, default=FaultRates(corrupt=1.0))
        from repro.cosim import FaultStats
        shared = FaultStats()
        bus = Bus(CoSimConfig(), fault_plan=plan, fault_stats=shared)
        bus.request(request(0, 1))
        bus.grant(0)
        assert shared.injected_corruptions == 1
        assert bus.fault_stats is shared
