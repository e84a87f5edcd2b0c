"""Unit tests for signal instances and the event pool."""

from repro.runtime import CREATION, EventPool, InstanceQueue, SignalInstance


def signal(seq, target=1, sender=None, creation=False, label="EV"):
    return SignalInstance(
        sequence=seq, label=label, class_key="W", params={},
        target_handle=None if creation else target, sender_handle=sender,
        is_creation=creation,
    )


class TestInstanceQueue:
    def test_fifo_for_external_events(self):
        queue = InstanceQueue()
        queue.push(signal(1))
        queue.push(signal(2))
        assert queue.pop().sequence == 1
        assert queue.pop().sequence == 2

    def test_self_events_jump_the_queue(self):
        queue = InstanceQueue()
        queue.push(signal(1, sender=9))
        queue.push(signal(2, target=1, sender=1))   # self-directed
        assert queue.pop().sequence == 2
        assert queue.pop().sequence == 1

    def test_self_events_fifo_among_themselves(self):
        queue = InstanceQueue()
        queue.push(signal(1, target=1, sender=1))
        queue.push(signal(2, target=1, sender=1))
        assert queue.pop().sequence == 1

    def test_peek_does_not_consume(self):
        queue = InstanceQueue()
        queue.push(signal(5))
        assert queue.peek().sequence == 5
        assert len(queue) == 1


class TestEventPool:
    def test_ready_handles_sorted(self):
        pool = EventPool()
        pool.push_ready(signal(1, target=9))
        pool.push_ready(signal(2, target=3))
        assert pool.ready_handles() == (3, 9)

    def test_creation_events_separate(self):
        pool = EventPool()
        pool.push_ready(signal(1, creation=True))
        assert pool.has_ready_creation()
        assert pool.ready_handles() == ()
        assert pool.pop_creation().sequence == 1

    def test_delayed_events_release_at_due_time(self):
        pool = EventPool()
        pool.push_delayed(signal(1), due_time=100)
        pool.push_delayed(signal(2), due_time=50)
        assert pool.ready_count == 0
        assert pool.next_due_time() == 50
        assert pool.release_due(60) == 1
        assert pool.ready_count == 1
        assert pool.release_due(100) == 1

    def test_cancel_delayed_by_predicate(self):
        pool = EventPool()
        pool.push_delayed(signal(1, label="T1"), 10)
        pool.push_delayed(signal(2, label="T2"), 20)
        removed = pool.cancel_delayed(lambda s: s.label == "T1")
        assert removed == 1
        assert pool.next_due_time() == 20

    def test_drop_instance_discards_ready_and_delayed(self):
        pool = EventPool()
        pool.push_ready(signal(1, target=4))
        pool.push_ready(signal(2, target=4))
        pool.push_delayed(signal(3, target=4), 10)
        pool.push_ready(signal(4, target=5))
        assert pool.drop_instance(4) == 3
        assert pool.ready_handles() == (5,)
        assert not (pool.ready_count == 0 and pool.delayed_count == 0)

    def test_emptied_queue_leaves_ready_handles(self):
        pool = EventPool()
        pool.push_ready(signal(1, target=4))
        pool.push_ready(signal(2, target=6))
        assert pool.pop_for(4).sequence == 1
        assert pool.ready_handles() == (6,)
        assert pool.ready_count == 1
        pool.push_ready(signal(3, target=4))
        assert pool.ready_handles() == (4, 6)

    def test_emptied_queue_serves_the_next_handle(self):
        pool = EventPool()
        pool.push_ready(signal(1, target=3))
        queue = pool._queues[3]
        pool.pop_for(3)
        assert pool._queues == {}
        pool.push_ready(signal(2, target=7))
        assert pool._queues == {7: queue}
        pool.push_ready(signal(3, target=8))
        assert pool._queues[8] is not queue

    def test_reused_queue_keeps_the_pool_queueing_rule(self):
        for self_priority, order in ((True, [3, 2]), (False, [2, 3])):
            pool = EventPool(self_priority)
            pool.push_ready(signal(1, target=3))
            pool.pop_for(3)
            pool.push_ready(signal(2, target=5, sender=9))
            pool.push_ready(signal(3, target=5, sender=5))  # self-directed
            assert [pool.pop_for(5).sequence for _ in order] == order

    def test_idle(self):
        pool = EventPool()
        assert pool.ready_count == 0 and pool.delayed_count == 0
        pool.push_delayed(signal(1), 10)
        assert not (pool.ready_count == 0 and pool.delayed_count == 0)

    def test_due_at_tracks_the_earliest_delayed_event(self):
        pool = EventPool()
        assert pool.due_at == float("inf")
        pool.push_delayed(signal(1), 30)
        pool.push_delayed(signal(2, target=2), 10)
        assert pool.due_at == 10
        pool.release_due(10)
        assert pool.due_at == 30
        pool.cancel_delayed(lambda s: s.sequence == 1)
        assert pool.due_at == float("inf")

    def test_oldest_source_scans_ready_queues_and_creations(self):
        pool = EventPool()
        assert pool.oldest_source() is None
        pool.push_ready(signal(5, target=3))
        pool.push_ready(signal(4, target=7))
        assert pool.oldest_source() == 7
        pool.push_ready(signal(2, creation=True))
        assert pool.oldest_source() == CREATION
        pool.pop_creation()
        pool.pop_for(7)
        assert pool.oldest_source() == 3

    def test_oldest_source_ties_go_to_the_lowest_handle(self):
        # sends are stamped uniquely, but a hand-built pool may tie: the
        # rule is min() over the sorted handles, then CREATION
        pool = EventPool()
        pool.push_ready(signal(1, target=9))
        pool.push_ready(signal(1, target=2))
        pool.push_ready(signal(1, creation=True))
        assert pool.oldest_source() == 2


class TestSignalInstance:
    def test_keyword_and_positional_construction_agree(self):
        by_keyword = SignalInstance(
            sequence=3, label="EV", class_key="W", params={"x": 1},
            target_handle=4, sender_handle=5, activity_id=6, sent_at=7,
            is_creation=False)
        by_position = SignalInstance(3, "EV", "W", {"x": 1}, 4, 5, 6, 7,
                                     False)
        assert by_keyword == by_position
        assert (by_position.sequence, by_position.sent_at,
                by_position.activity_id) == (3, 7, 6)

    def test_defaults(self):
        bare = SignalInstance(sequence=1, label="EV", class_key="W")
        assert bare.params == {}
        assert (bare.target_handle, bare.sender_handle) == (None, None)
        assert (bare.activity_id, bare.sent_at, bare.is_creation) \
            == (0, 0, False)

    def test_equality_and_hash_ignore_params(self):
        one = signal(1)
        other = SignalInstance(
            sequence=1, label="EV", class_key="W", params={"x": 99},
            target_handle=1)
        assert one == other and hash(one) == hash(other)
        assert len({one, other}) == 1
        assert one != signal(2)
        assert one != signal(1, target=2)

    def test_is_self_directed(self):
        assert signal(1, target=3, sender=3).is_self_directed
        assert not signal(1, target=3, sender=4).is_self_directed
        assert not signal(1, target=3).is_self_directed
        assert not signal(1, creation=True).is_self_directed

    def test_slotted(self):
        assert not hasattr(signal(1), "__dict__")
