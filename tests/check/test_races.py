"""Tests for the executor race-detection rules."""

import textwrap

from tests.static import exemption_errors, races
from tests.static.index import modules


def lint(code, tmp_path):
    """Rules triggered by ``code``, as a sorted list of rule ids."""
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(code))
    findings = races.analyze(modules(path))
    return sorted(finding.rule for finding in findings)


class TestReachability:
    def test_race_in_helper_called_from_root(self, tmp_path):
        # The violation lives two hops from run_trial; the call graph
        # carries reachability there.
        assert lint(
            """\
            RESULTS = []

            def _record(value):
                RESULTS.append(value)

            def _measure(spec):
                _record(spec)

            def run_trial(spec):
                _measure(spec)
            """, tmp_path) == ["RACE001"]

    def test_unreachable_code_is_not_checked(self, tmp_path):
        # Same violation, but nothing roots at it: workers never run it.
        assert lint(
            """\
            RESULTS = []

            def offline_report(value):
                RESULTS.append(value)
            """, tmp_path) == []


class TestRace001SharedState:
    def test_global_store_flagged(self, tmp_path):
        assert lint(
            """\
            COUNT = 0

            def run_trial(spec):
                global COUNT
                COUNT = COUNT + 1
            """, tmp_path) == ["RACE001"]

    def test_class_attribute_store_flagged(self, tmp_path):
        assert lint(
            """\
            class Cache:
                hits = 0

            def run_trial(spec):
                Cache.hits = spec
            """, tmp_path) == ["RACE001"]

    def test_item_store_into_module_dict_flagged(self, tmp_path):
        assert lint(
            """\
            CACHE = {}

            def run_trial(spec):
                CACHE[spec] = 1
            """, tmp_path) == ["RACE001"]

    def test_mutator_call_on_module_list_flagged(self, tmp_path):
        assert lint(
            """\
            SEEN = []

            def run_trial(spec):
                SEEN.append(spec)
            """, tmp_path) == ["RACE001"]

    def test_local_shadow_is_clean(self, tmp_path):
        # A local rebinding shadows the module name; mutating the local
        # object touches no shared state.
        assert lint(
            """\
            SEEN = []

            def run_trial(spec):
                SEEN = []
                SEEN.append(spec)
                return SEEN
            """, tmp_path) == []


class TestRace003ProcessDependence:
    def test_id_flagged(self, tmp_path):
        assert lint(
            """\
            def run_trial(spec):
                return id(spec)
            """, tmp_path) == ["RACE003"]

    def test_hash_of_string_flagged(self, tmp_path):
        assert lint(
            """\
            def run_trial(spec):
                return hash(spec.name)
            """, tmp_path) == ["RACE003"]

    def test_hash_of_int_constant_clean(self, tmp_path):
        assert lint(
            """\
            def run_trial(spec):
                return hash(42)
            """, tmp_path) == []

    def test_set_iteration_flagged(self, tmp_path):
        assert lint(
            """\
            def run_trial(spec):
                names = set(spec)
                out = []
                for name in names:
                    out.append(name)
                return out
            """, tmp_path) == ["RACE003"]

    def test_sorted_set_iteration_clean(self, tmp_path):
        assert lint(
            """\
            def run_trial(spec):
                names = set(spec)
                out = []
                for name in sorted(names):
                    out.append(name)
                return out
            """, tmp_path) == []


class TestExemptionTable:
    """A row excuses exactly its count of findings in one def."""

    def errors(self, tmp_path, stores):
        path = tmp_path / "snippet.py"
        path.write_text("COUNT = 0\n\ndef run_trial(spec):\n"
                        "    global COUNT\n" + "    COUNT = spec\n" * stores)
        module, = modules(path)
        return exemption_errors(races.analyze([module]),
                                {f"{module.file}::run_trial[RACE001]": 1})

    def test_a_row_excuses_its_count(self, tmp_path):
        assert self.errors(tmp_path, stores=1) == []

    def test_an_extra_finding_in_an_excused_def_fails(self, tmp_path):
        error, = self.errors(tmp_path, stores=2)
        assert error.endswith(
            "::run_trial[RACE001]: 2 finding(s), the table excuses 1")

    def test_a_stale_row_fails(self, tmp_path):
        assert len(self.errors(tmp_path, stores=0)) == 1
