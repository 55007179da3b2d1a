"""Tests for the hot-path performance lint."""

import textwrap

from tests.static import exemption_errors, hotpath
from tests.static.index import modules

#: tmp_path fixtures resolve to their bare stem as the module name.
HOT = ("snippet",)


def lint(code, tmp_path, hot_prefixes=HOT):
    """Rules triggered by ``code``, as a sorted list of rule ids."""
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(code))
    findings = hotpath.analyze(modules(path), hot_prefixes=hot_prefixes)
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


class TestExemptionTable:
    """A row excuses exactly its count of findings in one def."""

    def errors(self, tmp_path, lambdas):
        path = tmp_path / "snippet.py"
        path.write_text("def arm(sim, fut):\n    pass\n" + lambdas * (
            "    sim.call_after(5.0, lambda: fut.resolve(None))\n"))
        module, = modules(path)
        return exemption_errors(hotpath.analyze([module], hot_prefixes=HOT),
                                {f"{module.file}::arm[HOT002]": 1})

    def test_a_row_excuses_its_count(self, tmp_path):
        assert self.errors(tmp_path, lambdas=1) == []

    def test_an_extra_finding_in_an_excused_def_fails(self, tmp_path):
        error, = self.errors(tmp_path, lambdas=2)
        assert error.endswith(
            "::arm[HOT002]: 2 finding(s), the table excuses 1")

    def test_a_stale_row_fails(self, tmp_path):
        assert len(self.errors(tmp_path, lambdas=0)) == 1
