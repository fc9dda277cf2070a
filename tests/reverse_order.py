"""A pytest plugin that runs the collected tests in reversed order, so a test
that needs an earlier one's side effects fails:
``PYTHONPATH=src:tests python -m pytest -q -p reverse_order``."""


def pytest_collection_modifyitems(items):
    items.reverse()
