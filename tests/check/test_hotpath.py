"""Tests for the hot-path performance lint."""

import textwrap

from repro.check import hotpath
from repro.check.sources import load_tree

#: tmp_path fixtures resolve to their bare stem as the module name.
HOT = ("snippet",)


def lint(code, tmp_path, hot_prefixes=HOT):
    """Rules triggered by ``code``, as a sorted list of rule ids."""
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(code))
    findings = hotpath.analyze(load_tree([str(path)]),
                               hot_prefixes=hot_prefixes)
    return sorted(finding.rule for finding in findings)


class TestHot002SchedulingAllocation:
    def test_lambda_to_scheduler_flagged(self, tmp_path):
        assert lint(
            """\
            def arm(sim, fut, value):
                sim.call_after(5.0, lambda: fut.resolve(value))
            """, tmp_path) == ["HOT002"]

    def test_lambda_in_loop_flagged(self, tmp_path):
        assert lint(
            """\
            def fanout(items):
                thunks = []
                for item in items:
                    thunks.append(lambda: item)
                return thunks
            """, tmp_path) == ["HOT002"]

    def test_nested_def_in_loop_flagged(self, tmp_path):
        assert lint(
            """\
            def fanout(items):
                thunks = []
                for item in items:
                    def thunk(bound=item):
                        return bound
                    thunks.append(thunk)
                return thunks
            """, tmp_path) == ["HOT002"]

    def test_args_through_scheduler_clean(self, tmp_path):
        # The fixed idiom: the scheduler carries the args in its heap
        # tuple, no closure allocated.
        assert lint(
            """\
            def arm(sim, fut, value):
                sim.call_after(5.0, fut.resolve, value)
            """, tmp_path) == []

    def test_cold_module_clean(self, tmp_path):
        assert lint(
            """\
            def arm(sim, fut, value):
                sim.call_after(5.0, lambda: fut.resolve(value))
            """, tmp_path,
            hot_prefixes=hotpath.DEFAULT_HOT_PREFIXES) == []


class TestSuppression:
    def test_inline_allow_suppresses(self, tmp_path):
        assert lint(
            """\
            def arm(sim, fut, value):
                sim.call_after(5.0, lambda: fut.resolve(value))  # repro: allow[HOT002] one-shot setup
            """, tmp_path) == []

    def test_include_suppressed_reinstates(self, tmp_path):
        # Inventory runs see through the allow comments.
        path = tmp_path / "snippet.py"
        path.write_text(textwrap.dedent(
            """\
            def arm(sim, fut, value):
                sim.call_after(5.0, lambda: fut.resolve(value))  # repro: allow[HOT002] one-shot setup
            """))
        tree = load_tree([str(path)])
        tree.include_suppressed = True
        findings = hotpath.analyze(tree, hot_prefixes=HOT)
        assert [finding.rule for finding in findings] == ["HOT002"]
