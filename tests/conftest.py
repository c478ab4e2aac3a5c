"""Run order for the whole suite.

The unit tests take seconds; the acceptance suite takes 15-20 minutes,
most of it in criterion 6, which is known red on its wall-clock clause.
Every test still runs: the acceptance suite just goes after everything
else, in file order, with criterion 6 at the very end, so a slow
interpreter reports every quick result before the long sort workload.
"""

LAST = "test_criterion_06_sort_correctness_at_scale"


def pytest_collection_modifyitems(items):
    def stage(item):
        if item.path.name != "test_acceptance.py":
            return 0
        return 2 if item.name == LAST else 1

    items.sort(key=stage)  # stable: file and definition order within a stage
