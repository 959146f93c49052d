"""Adds ``--smoke``: the ledger's end-to-end smoke runs are opt-in."""


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run every ledger workload for ~2 s, untraced and traced",
    )
