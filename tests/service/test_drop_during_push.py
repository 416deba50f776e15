"""Regression: dropping a shared-prefix query while the engine is mid-push.

A result callback is the natural place to drop or rotate queries
("alert fired, stop watching"), and it runs *inside* the engine's
propagation loop: the worklist may still hold (operator, tuple) pairs
pointing at the boxes the drop detaches.  The engine must quarantine
unregistered boxes immediately — the dropped query's exclusive suffix
must not observe the in-flight tuple, and the surviving query (which
shares the prefix) must keep running undisturbed.
"""

import pytest

from repro import QuerySession
from repro.distributions import Gaussian
from repro.streams import StreamTuple


def make_tuples(n, start=0):
    return [
        StreamTuple(timestamp=float(start + i), uncertain={"w": Gaussian(10.0 + i, 1.0)})
        for i in range(n)
    ]


def shared_prefix_session(batch_size=None):
    """Two queries sharing their source->prob-filter prefix, per-tuple windows."""
    session = QuerySession(batch_size=batch_size)
    session.create_stream("s", uncertain=("w",), family="gaussian")
    session.register("keep", "SELECT * FROM s [NOW] WHERE w > 0 WITH PROBABILITY 0.1")
    session.register("doomed", "SELECT * FROM s [NOW] WHERE w > 0 WITH PROBABILITY 0.1")
    return session


@pytest.mark.parametrize("batch_size", [None, 4], ids=["one-row-batches", "batches-of-4"])
def test_drop_other_query_from_callback_mid_push(batch_size):
    """The drop happens while the same tuple is still queued for the victim.

    "keep" registers first, so the shared prefix box delivers each
    tuple to keep's sink *before* doomed's: when keep's callback drops
    "doomed", the propagation stack still holds the (doomed-sink,
    tuple) pair for the very tuple that triggered the callback.  That
    in-flight delivery must be discarded.
    """
    session = QuerySession(batch_size=batch_size)
    session.create_stream("s", uncertain=("w",), family="gaussian")
    dropped: list = []

    def drop_doomed(_item):
        if not dropped and "doomed" in session.queries:
            session.drop("doomed")
            dropped.append(True)

    session.register(
        "keep",
        "SELECT * FROM s [NOW] WHERE w > 0 WITH PROBABILITY 0.1",
        on_result=drop_doomed,
    )
    session.register("doomed", "SELECT * FROM s [NOW] WHERE w > 0 WITH PROBABILITY 0.1")
    doomed_sink = session._queries["doomed"].sink

    session.push_many("s", make_tuples(12))

    assert dropped, "the callback must have fired and dropped the other query"
    # The drop ran before the victim saw even the first tuple, and the
    # in-flight delivery scheduled behind the callback was discarded.
    assert len(doomed_sink.results) == 0
    assert "doomed" not in session.queries
    # The survivor keeps observing the whole stream.
    assert len(session.results("keep")) == 12


def test_drop_self_from_callback_mid_push():
    session = shared_prefix_session()
    seen: list = []

    def drop_self(item):
        seen.append(item)
        if len(seen) == 3:
            session.drop("keep")

    session.drop("keep")
    session.register(
        "keep",
        "SELECT * FROM s [NOW] WHERE w > 0 WITH PROBABILITY 0.1",
        on_result=drop_self,
    )
    keep_sink = session._queries["keep"].sink

    session.push_many("s", make_tuples(10))

    assert "keep" not in session.queries
    # Delivery stopped right after the drop: the third tuple was the last.
    assert len(keep_sink.results) == 3
    # The other query never noticed.
    assert len(session.results("doomed")) == 10


def test_nested_push_from_callback_keeps_quarantine():
    """A callback that drops a query and then pushes again must not
    resurrect the dropped query's in-flight deliveries.

    The nested push runs inside the outer propagation; if it cleared
    the quarantine, the outer worklist's pending (dropped-box, tuple)
    pairs would be delivered after the callback returns.
    """
    session = QuerySession()
    session.create_stream("s", uncertain=("w",), family="gaussian")
    session.create_stream("side", uncertain=("w",), family="gaussian")
    acted: list = []

    def drop_and_push(_item):
        if not acted and "doomed" in session.queries:
            session.drop("doomed")
            # Nested push into another source while the outer
            # propagation is still mid-flight.
            session.push("side", make_tuples(1)[0])
            acted.append(True)

    session.register(
        "keep",
        "SELECT * FROM s [NOW] WHERE w > 0 WITH PROBABILITY 0.1",
        on_result=drop_and_push,
    )
    session.register("doomed", "SELECT * FROM s [NOW] WHERE w > 0 WITH PROBABILITY 0.1")
    session.register("sideline", "SELECT * FROM side [NOW] WHERE w > 0 WITH PROBABILITY 0.1")
    doomed_sink = session._queries["doomed"].sink

    session.push_many("s", make_tuples(8))

    assert acted
    assert len(doomed_sink.results) == 0
    assert len(session.results("keep")) == 8
    assert len(session.results("sideline")) == 1


def test_drop_during_flush_callback():
    """Dropping from a callback that fires during finish()/flush()."""
    session = QuerySession()
    session.create_stream("s", uncertain=("w",), family="gaussian")
    session.register("keep", "SELECT SUM(w) FROM s [RANGE 100 SECONDS]")

    def drop_other(_item):
        if "doomed" in session.queries:
            session.drop("doomed")

    session.register(
        "watcher",
        "SELECT SUM(w) FROM s [RANGE 100 SECONDS]",
        on_result=drop_other,
    )
    session.register("doomed", "SELECT SUM(w) FROM s [RANGE 100 SECONDS]")
    doomed_sink = session._queries["doomed"].sink

    session.push_many("s", make_tuples(5))
    session.flush()  # closes the partial window; watcher's callback drops "doomed"

    assert "doomed" not in session.queries
    # Flush order between the shared window box's consumers is not
    # guaranteed, but after the drop no further tuples may arrive.
    frozen = len(doomed_sink.results)
    session.push_many("s", make_tuples(5, start=200))
    session.flush()
    assert len(doomed_sink.results) == frozen
