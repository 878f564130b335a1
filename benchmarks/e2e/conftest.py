"""Keeps the bench's smoke test out of the repository's bare ``pytest``
run (tier-1): it takes a minute and measures, it does not unit-test.
A path named on the command line is still collected."""

collect_ignore = ["test_smoke.py"]
