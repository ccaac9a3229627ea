"""The operation meter and its nesting semantics."""

from repro.metering import OpMeter, active_meter, count, deferred, metered, report


class TestOpMeter:
    def test_counts_and_reset(self):
        meter = OpMeter()
        meter.add("ec_mult")
        meter.add("io_bytes", 64)
        assert meter.snapshot() == {"ec_mult": 1, "io_bytes": 64}
        meter.reset()
        assert meter.snapshot() == {}

    def test_merge(self):
        a, b = OpMeter(), OpMeter()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 3)
        a.merge(b)
        assert a.counts["x"] == 3 and a.counts["y"] == 3

    def test_unattached_count_is_noop(self):
        count("anything")  # must not raise
        assert active_meter() is None

    def test_attached_counting(self):
        with metered() as meter:
            count("op", 2)
            count("op")
        assert meter.counts["op"] == 3

    def test_nested_meters_both_observe(self):
        outer = OpMeter()
        with outer.attached():
            with metered() as inner:
                count("op")
        assert outer.counts["op"] == 1
        assert inner.counts["op"] == 1

    def test_deferred_counts_are_held_until_reported(self):
        """Work done ahead of its step reaches no attached meter until it is
        reported — once, whole — and a held meter never reported is dropped."""
        with metered() as outer:
            with deferred() as held:
                count("io_bytes", 60)
                with metered() as nested:
                    count("io_bytes", 4)
            with deferred() as dropped:
                count("io_bytes", 1000)
            assert dict(outer.counts) == {} and nested.counts["io_bytes"] == 4
            count("flash_read_bytes", 16)
            report(held)
        assert dict(outer.counts) == {"flash_read_bytes": 16, "io_bytes": 64}
        assert dropped.counts["io_bytes"] == 1000
        assert active_meter() is None

    def test_detach_stops_counting(self):
        with metered() as meter:
            count("op")
        count("op")
        assert meter.counts["op"] == 1

    def test_threads_meter_independently(self):
        """Concurrent sessions must never observe each other's operations
        (the service layer runs one worker thread per HSM)."""
        import threading

        meters = [OpMeter() for _ in range(4)]
        barrier = threading.Barrier(4)

        def session(i):
            with meters[i].attached():
                barrier.wait()  # everyone attached before anyone counts
                for _ in range(50):
                    count(f"op{i}")

        threads = [threading.Thread(target=session, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, meter in enumerate(meters):
            assert meter.snapshot() == {f"op{i}": 50}
