"""The benchmark's continuous queries and their parameters.

The reference checks in ``checks.py`` recompute each query from these
parameters, so the CQL text and the numpy reference cannot drift apart.
"""

# Every window spans 0.1 s of event time: 100 readings or 20 mixtures.
# An open-loop tick carries 1 s of event time (1 000 readings, 200
# mixtures), so each tick closes ten windows of each query and every
# tick carries the same mix of results.
HOT_WINDOW = 0.1
HOT_THRESHOLD = 50.0
HOT_PROBABILITY = 0.5

TAG_WINDOW = 0.1  # 12.5 readings per tag
TAG_LIMIT = 625.0
TAG_CONFIDENCE = 0.5

MIX_WINDOW = 0.1

HOT_SUM = (
    f"SELECT SUM(value) FROM readings "
    f"[RANGE {HOT_WINDOW} SECONDS SLIDE {HOT_WINDOW} SECONDS] "
    f"WHERE value > {HOT_THRESHOLD} WITH PROBABILITY {HOT_PROBABILITY}"
)
TAG_HAVING = (
    f"SELECT tag, SUM(value) FROM readings "
    f"[RANGE {TAG_WINDOW} SECONDS SLIDE {TAG_WINDOW} SECONDS] "
    f"GROUP BY tag HAVING SUM(value) > {TAG_LIMIT} WITH CONFIDENCE {TAG_CONFIDENCE}"
)
MIX_SUM = (
    f"SELECT SUM(value) FROM mixtures "
    f"[RANGE {MIX_WINDOW} SECONDS SLIDE {MIX_WINDOW} SECONDS]"
)


def declare_readings(target) -> None:
    """Declare ``readings`` on a QuerySession or a StreamClient."""
    declare = getattr(target, "create_stream", None) or target.declare_stream
    declare(
        "readings", values=("tag",), uncertain=("value",), family="gaussian", rate_hint=1000.0
    )


def declare_mixtures(session) -> None:
    session.create_stream("mixtures", uncertain=("value",), family="gmm", rate_hint=200.0)
