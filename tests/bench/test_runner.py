"""Unit tests for the benchmark harness (small scales)."""

import pytest

from repro.bench import (
    database_for,
    dbpedia_database,
    lubm_database,
    mandatory_core_bgp,
    run_engine_table,
    run_hhk_hypothesis,
    run_iteration_study,
    run_table2,
    run_table3,
)
from repro.bench.runner import _median_report
from repro.pipeline.pruned_query import PipelineReport
from repro.sparql.ast import BGP
from repro.workloads import BENCH_QUERIES


class TestDatabaseCache:
    def test_lubm_cached(self):
        assert lubm_database(2) is lubm_database(2)

    def test_dbpedia_cached(self):
        assert dbpedia_database(1) is dbpedia_database(1)

    def test_database_for_routes_by_family(self):
        assert database_for("L0", lubm_universities=2) is lubm_database(2)
        assert database_for("B0", dbpedia_scale=1) is dbpedia_database(1)


class TestMandatoryCore:
    def test_strips_optional(self):
        core = mandatory_core_bgp(BENCH_QUERIES["B0"])
        assert isinstance(core, BGP)
        assert len(core.triples) == 2  # directed + born_in

    def test_union_takes_first_branch(self):
        core = mandatory_core_bgp(BENCH_QUERIES["B19"])
        assert isinstance(core, BGP)
        assert len(core.triples) == 2

    def test_plain_bgp_unchanged(self):
        core = mandatory_core_bgp(BENCH_QUERIES["B2"])
        assert len(core.triples) == 2


class TestRunners:
    def test_run_table2_subset(self):
        rows = run_table2(
            queries={"B0": BENCH_QUERIES["B0"], "B7": BENCH_QUERIES["B7"]},
            dbpedia_scale=1,
        )
        assert [r.query for r in rows] == ["B0", "B7"]
        assert all(r.sim_equal for r in rows)
        assert all(r.t_sparqlsim > 0 and r.t_ma > 0 for r in rows)

    def test_run_table3_subset(self):
        rows = run_table3(
            names=["L4", "B16"], lubm_universities=2, dbpedia_scale=1
        )
        assert [r.name for r in rows] == ["L4", "B16"]
        assert all(r.results_equal for r in rows)

    def test_table_rows_report_median_timings(self):
        runs = [
            PipelineReport("L4", result_count=5, t_simulation=s,
                           t_db_full=f, t_db_pruned=p)
            for s, f, p in ((0.3, 9.0, 2.0), (0.1, 1.0, 3.0),
                            (0.2, 2.0, 1.0))
        ]
        row = _median_report(runs)
        assert (row.t_simulation, row.t_db_full, row.t_db_pruned) == \
            (0.2, 2.0, 2.0)
        assert row.result_count == 5

    def test_table_rows_reject_disagreeing_runs(self):
        runs = [PipelineReport("L4", result_count=n) for n in (5, 5, 6)]
        with pytest.raises(RuntimeError, match="L4"):
            _median_report(runs)

    def test_run_engine_table_profiles(self):
        for profile in ("rdfox-like", "virtuoso-like"):
            rows = run_engine_table(
                profile, names=["B16"], dbpedia_scale=1
            )
            assert rows[0].results_equal

    def test_run_iteration_study(self):
        rows = run_iteration_study(
            names=["L0", "L1"], lubm_universities=2
        )
        by_name = {r.query: r for r in rows}
        assert by_name["L0"].rounds > by_name["L1"].rounds
        assert all(r.evaluations >= r.updates for r in rows)

    def test_run_hhk_hypothesis(self):
        rows = run_hhk_hypothesis(
            names=["B0"], dbpedia_scale=1, lubm_universities=2
        )
        assert rows[0].sim_equal
        assert rows[0].ratio > 0
