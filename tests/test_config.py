import threading

import pytest

import fanweave as fw
from fanweave.config import tols


class TestTolerances:
    def test_defaults_are_frozen(self):
        with pytest.raises(AttributeError):
            fw.DEFAULT_TOLS.commutation = 1.0
        assert tols() is fw.DEFAULT_TOLS

    def test_override_changes_a_result_inside_the_block(self, weyl):
        # ||AB - BA||_F <= 2 sqrt(d) = 4 for unitaries, so every pair commutes within 10
        with fw.tolerances(commutation=10.0) as active:
            assert active.commutation == 10.0
            assert len(fw.fan_representation(weyl(4), "0,0").masses) == 1
        assert len(fw.fan_representation(weyl(4), "0,0").masses) == 7

    def test_overrides_nest_and_reset(self):
        with fw.tolerances(commutation=1e-3):
            with fw.tolerances(psd=1e-6) as inner:
                assert (inner.commutation, inner.psd) == (1e-3, 1e-6)
            assert tols().psd == fw.DEFAULT_TOLS.psd
            assert tols().commutation == 1e-3
        assert tols() is fw.DEFAULT_TOLS

    def test_reset_when_the_block_raises(self):
        with pytest.raises(RuntimeError):
            with fw.tolerances(commutation=10.0):
                raise RuntimeError("boom")
        assert tols() is fw.DEFAULT_TOLS

    def test_override_is_not_seen_by_another_thread(self, weyl):
        entered, checked = threading.Event(), threading.Event()
        seen = {}

        def other():
            with fw.tolerances(commutation=10.0):
                entered.set()
                checked.wait(timeout=30)
                seen["other"] = len(fw.fan_representation(weyl(4), "0,0").masses)

        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert entered.wait(timeout=30)
            seen["main"] = len(fw.fan_representation(weyl(4), "0,0").masses)
        finally:
            checked.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen == {"main": 7, "other": 1}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_values_rejected(self, value):
        with pytest.raises(ValueError, match="'psd' must be finite and positive"):
            with fw.tolerances(psd=value):
                pass
        assert tols() is fw.DEFAULT_TOLS

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown tolerance name"):
            with fw.tolerances(reconstruction=1e-8):
                pass
