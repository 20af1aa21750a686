"""Tests for repro.utils.validation."""

import pytest

from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    require,
)


class TestRequire:
    def test_passes_when_true(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5, "x") == 2.5

    def test_accepts_int(self):
        assert check_positive(3, "x") == 3.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="strictly positive"):
            check_positive(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="strictly positive"):
            check_positive(float("nan"), "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive(True, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            check_positive("5", "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0, "x") == 0.0

    def test_accepts_positive(self):
        assert check_non_negative(1.5, "x") == 1.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_non_negative(-0.1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_non_negative(float("nan"), "x")


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 2.0])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            check_probability(value, "p")

    def test_error_message_includes_name(self):
        with pytest.raises(ValueError, match="my_prob"):
            check_probability(2.0, "my_prob")
