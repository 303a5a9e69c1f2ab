"""Self-time arithmetic and span recording."""
import time

from spans import Tracer, aggregate, self_times


def test_self_time_on_synthetic_tree():
    spans = [
        (0, 100, -1),   # 0 root
        (10, 30, 0),    # 1 child
        (20, 50, 0),    # 2 child overlapping 1: union 10..50 covers 40
        (90, 120, 0),   # 3 child running past the root's end: clipped to 10
        (12, 18, 1),    # 4 grandchild under 1
        (200, 210, -1), # 5 separate root, no children
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6, 10]


def test_self_times_partition_a_nested_tree():
    spans = [(0, 1000, -1), (100, 400, 0), (150, 250, 1), (500, 900, 0), (600, 700, 3)]
    assert sum(self_times(spans)) == 1000


def test_tracer_records_parents_and_ops():
    tracer = Tracer()

    def leaf():
        time.sleep(0.001)

    leaf = tracer.wrap("m.leaf", leaf)
    outer = tracer.wrap("m.outer", lambda: [leaf(), leaf()])
    tracer.op = 7
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["m.outer", "m.leaf", "m.leaf"]
    assert tracer.spans[1][3] is tracer.spans[0] and tracer.spans[0][3] is None
    assert {s[4] for s in tracer.spans} == {7}
    stats = aggregate(tracer)
    root = tracer.spans[0]
    total = sum(e["self_ns"] for e in stats.values())
    assert total == root[2] - root[1]
    assert stats["m.leaf"]["calls"] == 2 and stats["m.leaf"]["from"]["m"] == 2
    exported = tracer.export()
    assert [row[3] for row in exported["spans"]] == [-1, 0, 0]
