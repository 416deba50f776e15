"""The one operator contract: a box implements ``process_batch`` only.

A subclass that defines a per-tuple ``process`` would never be called by
the engine, so the class statement itself fails.
"""

import pytest

from repro.core import ProbabilisticSelect, UncertainAggregate
from repro.streams import CollectSink, Filter, PassThroughOperator
from repro.streams.operators.base import Operator


@pytest.mark.parametrize(
    "base",
    [Operator, PassThroughOperator, Filter, CollectSink, ProbabilisticSelect, UncertainAggregate],
)
def test_defining_process_raises_type_error(base):
    with pytest.raises(TypeError, match="PerRow defines process.*process_batch"):

        class PerRow(base):
            def process(self, item):
                yield item
