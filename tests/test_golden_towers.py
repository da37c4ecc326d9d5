"""CLI outputs over towers of square roots: the cases of
`tests/data/cli_golden_towers.json`, replayed by the runner of
`tests/test_golden.py`, whose docstring says what they cover."""

from test_golden import golden_test

test_cli_output_is_unchanged = golden_test("cli_golden_towers.json")
