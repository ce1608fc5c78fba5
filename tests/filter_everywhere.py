"""A pytest plugin that sends every engine run through the estimate filter.

    PYTHONPATH=src:tests python -m pytest -q -p filter_everywhere

It sets the engines' size gate to 0, so each pass of every engine test and of
every pinned CLI output settles its genes through ``clustering._FilteredRule``
at any size. A test that fails only with this plugin shows a filter defect.
"""

from genecluster import clustering


def pytest_configure(config):
    clustering._BOUND_CELLS = 0
