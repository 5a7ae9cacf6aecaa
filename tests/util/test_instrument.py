"""FlopCounter instrumentation tests."""

from __future__ import annotations

import pytest

from repro.instrument import FlopCounter


class TestFlopCounter:
    def test_accumulation_by_phase_and_mode(self):
        c = FlopCounter()
        c.add(100, phase="lq", mode=0)
        c.add(50, phase="lq", mode=1)
        c.add(25, phase="svd", mode=0)
        assert c.total == 175
        assert c.phase_total("lq") == 150
        assert c.by_phase_mode[("lq", 0)] == 100
        assert c.phase_total("ttm") == 0

    def test_default_phase(self):
        c = FlopCounter()
        c.add(7)
        assert c.by_phase["other"] == 7
        assert c.by_phase_mode[("other", None)] == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FlopCounter().add(-1)
