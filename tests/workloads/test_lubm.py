"""Unit tests for the LUBM-like generator."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    LUBM_PREDICATES,
    LUBMConfig,
    build_lubm_snapshot,
    generate_lubm,
    lubm_snapshot_path,
    open_lubm,
)


class TestSchema:
    def test_exactly_18_predicates_available(self):
        assert len(LUBM_PREDICATES) == 18

    def test_used_predicates_within_schema(self, small_lubm):
        assert small_lubm.labels <= set(LUBM_PREDICATES)

    def test_low_label_diversity(self, small_lubm):
        # The defining LUBM property: few labels, many edges.
        assert len(small_lubm.labels) <= 18
        assert small_lubm.n_triples / len(small_lubm.labels) > 30


class TestDeterminism:
    def test_same_seed_same_db(self):
        a = generate_lubm(n_universities=2, seed=9)
        b = generate_lubm(n_universities=2, seed=9)
        assert set(a.triples()) == set(b.triples())

    def test_different_seed_differs(self):
        a = generate_lubm(n_universities=2, seed=1)
        b = generate_lubm(n_universities=2, seed=2)
        assert set(a.triples()) != set(b.triples())


class TestStructure:
    def test_every_department_in_a_university(self, small_lubm):
        db = small_lubm
        depts = {
            s for s, p, o in db.triples() if p == "type" and o == "Department"
        }
        for dept in depts:
            assert db.successors(dept, "subOrganizationOf")

    def test_every_grad_has_advisor_in_own_department(self, small_lubm):
        db = small_lubm
        grads = {
            s for s, p, o in db.triples()
            if p == "type" and o == "GraduateStudent"
        }
        assert grads
        for grad in grads:
            advisors = db.successors(grad, "advisor")
            assert len(advisors) == 1
            dept = next(iter(db.successors(grad, "memberOf")))
            advisor = next(iter(advisors))
            assert dept in db.successors(advisor, "worksFor")

    def test_publications_have_authors(self, small_lubm):
        db = small_lubm
        pubs = {
            s for s, p, o in db.triples()
            if p == "type" and o == "Publication"
        }
        assert pubs
        for pub in pubs:
            assert db.successors(pub, "author")

    def test_one_head_per_department(self, small_lubm):
        db = small_lubm
        heads = [(s, o) for s, p, o in db.triples() if p == "headOf"]
        depts = {o for _s, o in heads}
        assert len(heads) == len(depts)

    def test_foreign_degrees_exist(self):
        db = generate_lubm(n_universities=4, seed=0)
        foreign = 0
        for s, p, o in db.triples():
            if p == "undergraduateDegreeFrom" and s.startswith("u"):
                home = s.split(":")[0]
                if o != home:
                    foreign += 1
        assert foreign > 0  # the L1 weak-pruning driver

    def test_spiral_present_and_open(self):
        db = generate_lubm(n_universities=1, seed=0, spiral_length=5)
        assert db.has_edge("spiral:s0", "advisor", "spiral:p0")
        assert db.has_edge("spiral:s1", "takesCourse", "spiral:c0")
        # Open at both ends.
        assert not db.has_node("spiral:s5")
        assert db.successors("spiral:s0", "takesCourse") == set()

    def test_spiral_disabled(self):
        db = generate_lubm(n_universities=1, seed=0, spiral_length=0)
        assert not db.has_node("spiral:s0")


class TestConfig:
    def test_invalid_university_count(self):
        with pytest.raises(WorkloadError):
            generate_lubm(n_universities=0)

    def test_config_and_overrides_exclusive(self):
        with pytest.raises(WorkloadError):
            generate_lubm(LUBMConfig(), seed=3)

    def test_scaling(self):
        small = generate_lubm(n_universities=1, seed=0)
        large = generate_lubm(n_universities=4, seed=0)
        assert large.n_triples > 2 * small.n_triples


class TestBuildOnceOpenMany:
    CONFIG = dict(n_universities=1, seed=3, spiral_length=4)

    def test_snapshot_path_is_deterministic(self, tmp_path):
        a = lubm_snapshot_path(tmp_path, LUBMConfig(**self.CONFIG))
        b = lubm_snapshot_path(tmp_path, LUBMConfig(**self.CONFIG))
        assert a == b
        other = lubm_snapshot_path(
            tmp_path, LUBMConfig(n_universities=2, seed=3, spiral_length=4)
        )
        assert other != a

    def test_snapshot_path_keys_on_every_config_field(self, tmp_path):
        base = lubm_snapshot_path(tmp_path, LUBMConfig(**self.CONFIG))
        tweaked = lubm_snapshot_path(
            tmp_path,
            LUBMConfig(advisor_course_probability=0.0, **self.CONFIG),
        )
        assert tweaked != base  # non-headline knobs must not collide

    def test_build_once(self, tmp_path):
        path = build_lubm_snapshot(tmp_path, **self.CONFIG)
        assert path.exists()
        stamp = path.stat().st_mtime_ns
        again = build_lubm_snapshot(tmp_path, **self.CONFIG)
        assert again == path
        assert path.stat().st_mtime_ns == stamp  # not regenerated

    def test_force_rebuilds(self, tmp_path):
        path = build_lubm_snapshot(tmp_path, **self.CONFIG)
        content = path.read_bytes()
        rebuilt = build_lubm_snapshot(tmp_path, force=True, **self.CONFIG)
        assert rebuilt.read_bytes() == content  # deterministic output

    def test_open_many_matches_generator(self, tmp_path):
        db = generate_lubm(**self.CONFIG)
        view = open_lubm(tmp_path, **self.CONFIG)
        assert view.n_triples == db.n_triples
        assert set(view.triples()) == set(db.triples())
        # second open reuses the snapshot file
        view2 = open_lubm(tmp_path, **self.CONFIG)
        assert view2.n_triples == db.n_triples

    def test_stale_format_cache_is_not_reused(self, tmp_path):
        """A cache file a retired writer left under the old,
        version-less name must not shadow a current build."""
        from repro.api import Database
        from repro.storage import write_snapshot
        from repro.storage.format import VERSION

        path = lubm_snapshot_path(tmp_path, LUBMConfig(**self.CONFIG))
        assert path.name.endswith(f".v{VERSION}.snap")
        stale = path.with_name(path.name.replace(f".v{VERSION}", ""))
        write_snapshot(generate_lubm(**self.CONFIG), stale)
        data = bytearray(stale.read_bytes())
        data[8:12] = (2).to_bytes(4, "little")  # a format-v2 header
        stale.write_bytes(bytes(data))

        built = build_lubm_snapshot(tmp_path, **self.CONFIG)
        assert built == path != stale
        db = Database.open(built, cached=False)
        try:
            assert db.stats().n_triples == generate_lubm(
                **self.CONFIG
            ).n_triples
        finally:
            db.close()

    def test_config_and_overrides_exclusive(self, tmp_path):
        with pytest.raises(WorkloadError):
            build_lubm_snapshot(tmp_path, LUBMConfig(), seed=3)
