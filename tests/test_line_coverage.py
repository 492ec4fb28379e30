"""tests/line_coverage.py finds the one statement of a module that a run
leaves out, and counts a decorated definition as run at import."""

import importlib.util

from line_coverage import traced_lines, unexecuted

SOURCE = '''\
import functools


def sign(x):
    """A docstring, which runs no bytecode."""
    if x >= 0:
        return 1
    else:
        return -1


@functools.lru_cache(
    maxsize=None,
)
def never():
    return 0
'''


def test_the_statement_a_run_skips_is_listed(tmp_path):
    path = tmp_path / "throwaway.py"
    path.write_text(SOURCE)

    def run():
        spec = importlib.util.spec_from_file_location("throwaway", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.sign(2) == 1

    hit = traced_lines(run, tmp_path)
    assert unexecuted(path, hit) == (7, [9, 16])
