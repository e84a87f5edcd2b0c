"""Unit tests for signal instances and the event pool."""

from repro.runtime import EventPool, InstanceQueue, SignalInstance


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

    def test_idle(self):
        pool = EventPool()
        assert pool.ready_count == 0 and pool.delayed_count == 0
        pool.push_delayed(signal(1), 10)
        assert not (pool.ready_count == 0 and pool.delayed_count == 0)
