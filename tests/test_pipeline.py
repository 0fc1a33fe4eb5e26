"""Tests for the end-to-end fit / select entry points."""

import warnings

import numpy as np
import pytest

from camt.pipeline import fit_camt, run_camt


def test_empty_input_is_a_clear_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before EM can warn about small m
        with pytest.raises(ValueError, match="need at least one p-value"):
            run_camt(np.array([]))
        with pytest.raises(ValueError, match="need at least one p-value"):
            fit_camt([], np.empty((0, 2)))
