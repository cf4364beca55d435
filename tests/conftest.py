"""Hypothesis profiles for the test suite.

``python -m pytest tests/test_quant.py --hypothesis-profile=ci`` draws ten
times the default number of examples for every property test that does not
pin its own count.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
