from __future__ import annotations

import json

from btfvs.lemma_suite import (SuiteConfig, check_square_cycle_equivalence,
                               run_lemma_suite)
from btfvs.structure import is_acyclic


class TestFaultInjection:
    def test_inverted_acyclicity_is_caught_with_witness(self):
        cfg = SuiteConfig(exhaustive_side=2, random_trials=5)
        broken = lambda T, within=None: not is_acyclic(T, within)
        result = check_square_cycle_equivalence(cfg, acyclic_fn=broken)
        assert not result.passed
        assert result.counterexample is not None
        payload = json.loads(result.counterexample)
        assert "instance" in payload  # replayable witness

    def test_correct_build_passes(self):
        cfg = SuiteConfig(exhaustive_side=2, random_trials=5)
        assert check_square_cycle_equivalence(cfg).passed


class TestSuiteRunner:
    def test_quick_run_all_green(self):
        cfg = SuiteConfig(
            seed=11, exhaustive_side=2, random_trials=40, structure_trials=30,
            classify_trials=30, solver_trials=20, long_back_trials=8,
            reduction_trials=15, monotonicity_trials=15, backward_trials=5,
            end_to_end_trials=6, dfvc_trials=15, forward_trials=6)
        report = run_lemma_suite(cfg)
        assert report.all_passed
        names = {r.name for r in report.results}
        assert "block_monotonicity" in names
        mono = next(r for r in report.results if r.name == "block_monotonicity")
        assert "empirical" in mono.note

    def test_report_json_shape(self):
        cfg = SuiteConfig(
            seed=12, exhaustive_side=1, random_trials=5, structure_trials=5,
            classify_trials=5, solver_trials=5, long_back_trials=2,
            reduction_trials=5, monotonicity_trials=5, backward_trials=2,
            end_to_end_trials=2, dfvc_trials=5, forward_trials=2)
        report = run_lemma_suite(cfg)
        payload = json.loads(report.to_json())
        assert set(payload) == {"all_passed", "results"}
        for entry in payload["results"]:
            assert {"name", "passed", "checked", "note", "counterexample"} == set(entry)

    def test_config_rejects_negative_counts(self):
        import pytest
        from dataclasses import fields
        for f in fields(SuiteConfig):
            if f.name in ("seed", "profile"):
                continue
            with pytest.raises(ValueError, match=f.name):
                SuiteConfig(**{f.name: -1})
        assert SuiteConfig(seed=-1, random_trials=0).seed == -1

    def test_config_from_mapping_rejects_unknown(self):
        import pytest
        with pytest.raises(ValueError):
            SuiteConfig.from_mapping({"bogus": 1})
