"""LUBM-like synthetic workload (paper Sect. 5.1).

The paper evaluates on LUBM(10000): 1.38B triples, **18 predicates**,
low label diversity, highly regular subgraphs.  This generator
reproduces those structural properties at configurable scale:

* exactly the 18-predicate schema flavour of LUBM (types, org
  hierarchy, degrees, advisors, courses, publications, attributes);
* very low predicate selectivity (few labels over many edges), which
  drives the many-iteration fixpoints of the L0 discussion;
* adjacent potential matches: publications whose student co-author is
  a member of one department but got their degree from a *different*
  university — the exact misalignment behind the paper's L1
  weak-pruning analysis (Sect. 5.3 / the Fig. 4-style false
  positives).

Node names are plain strings (``u0:d2:prof3`` etc.), class nodes are
``University``/``Department``/... and literals use
:class:`~repro.graph.database.Literal`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Union

from repro.errors import WorkloadError
from repro.graph.database import GraphDatabase, Literal

#: The 18 predicates (mirroring LUBM's univ-bench ontology usage).
LUBM_PREDICATES = (
    "type",
    "subOrganizationOf",
    "undergraduateDegreeFrom",
    "mastersDegreeFrom",
    "doctoralDegreeFrom",
    "memberOf",
    "worksFor",
    "headOf",
    "advisor",
    "takesCourse",
    "teacherOf",
    "teachingAssistantOf",
    "author",
    "researchInterest",
    "emailAddress",
    "telephone",
    "name",
    "title",
)

_RESEARCH_AREAS = [
    "Databases", "Graphics", "AI", "Systems", "Theory",
    "Networks", "HCI", "Security",
]


@dataclass
class LUBMConfig:
    """Scale knobs; defaults give a small, test-friendly dataset."""

    n_universities: int = 4
    departments_per_university: tuple = (3, 5)
    professors_per_department: tuple = (4, 7)
    lecturers_per_department: tuple = (1, 3)
    undergrads_per_department: tuple = (12, 24)
    grads_per_department: tuple = (4, 9)
    courses_per_department: tuple = (5, 9)
    publications_per_faculty: tuple = (1, 4)
    courses_per_student: tuple = (2, 4)
    #: Probability a grad student's degree university differs from the
    #: department's university — the L1 weak-pruning driver.
    foreign_degree_probability: float = 0.5
    #: Probability a grad student takes a course taught by their
    #: advisor — creating L0 triangles.
    advisor_course_probability: float = 0.6
    #: Length of the near-miss advisor/course spiral (see
    #: :meth:`_Generator._spiral`).  This reproduces the paper's L0
    #: iteration behaviour: dual simulation disqualifies the spiral
    #: one layer per propagation step, so the fixpoint needs on the
    #: order of ``spiral_length`` rounds (Sect. 5.3: ">30 iterations"
    #: for L0, two for L1).  Set to 0 to disable.
    spiral_length: int = 36
    seed: int = 7


class _Generator:
    def __init__(self, config: LUBMConfig):
        if config.n_universities < 1:
            raise WorkloadError("need at least one university")
        self.config = config
        self.rng = random.Random(config.seed)
        self.db = GraphDatabase()
        self.universities: List[str] = []
        self.all_professors: List[str] = []

    def _rand(self, bounds: tuple) -> int:
        low, high = bounds
        return self.rng.randint(low, high)

    def generate(self) -> GraphDatabase:
        add = self.db.add_triple
        for u in range(self.config.n_universities):
            univ = f"u{u}"
            self.universities.append(univ)
            add(univ, "type", "University")
            add(univ, "name", Literal(f"University{u}"))
        for u, univ in enumerate(self.universities):
            for d in range(self._rand(self.config.departments_per_university)):
                self._department(u, d, univ)
        self._spiral()
        return self.db

    def _spiral(self) -> None:
        """A near-miss advisor/teacherOf/takesCourse spiral.

        The L0 triangle pattern maps into the spiral everywhere
        *locally*, but the spiral is open at both ends, so dual
        simulation peels it one layer per propagation step — the
        structural device behind the paper's report that L0 needs
        more than 30 fixpoint iterations on LUBM while L1 needs two.
        Spiral members deliberately have no ``memberOf``/``worksFor``
        edges, so queries requiring those (L1/L2) disqualify the whole
        spiral during initialization (Eq. (13)) and stay fast.
        """
        k = self.config.spiral_length
        if k <= 0:
            return
        add = self.db.add_triple
        for i in range(k):
            add(f"spiral:s{i}", "advisor", f"spiral:p{i}")
            add(f"spiral:p{i}", "teacherOf", f"spiral:c{i}")
            if i + 1 < k:
                add(f"spiral:s{i + 1}", "takesCourse", f"spiral:c{i}")

    def _department(self, u: int, d: int, univ: str) -> None:
        rng = self.rng
        config = self.config
        add = self.db.add_triple
        dept = f"u{u}:d{d}"
        add(dept, "type", "Department")
        add(dept, "subOrganizationOf", univ)
        add(dept, "name", Literal(f"Department{d}.{u}"))

        professors = []
        for i in range(self._rand(config.professors_per_department)):
            prof = f"{dept}:prof{i}"
            professors.append(prof)
            add(prof, "type", "Professor")
            add(prof, "worksFor", dept)
            add(prof, "doctoralDegreeFrom", rng.choice(self.universities))
            add(prof, "researchInterest",
                Literal(rng.choice(_RESEARCH_AREAS)))
            add(prof, "emailAddress", Literal(f"{prof}@example.edu"))
            add(prof, "name", Literal(f"Prof{i}.{dept}"))
        add(professors[0], "headOf", dept)
        self.all_professors.extend(professors)

        lecturers = []
        for i in range(self._rand(config.lecturers_per_department)):
            lecturer = f"{dept}:lect{i}"
            lecturers.append(lecturer)
            add(lecturer, "type", "Lecturer")
            add(lecturer, "worksFor", dept)
            add(lecturer, "name", Literal(f"Lect{i}.{dept}"))

        courses = []
        #: teacher -> the courses it teaches, in ``courses`` order.
        taught: Dict[str, List[str]] = {}
        for i in range(self._rand(config.courses_per_department)):
            course = f"{dept}:course{i}"
            courses.append(course)
            add(course, "type", "Course")
            add(course, "name", Literal(f"Course{i}.{dept}"))
            add(course, "title", Literal(f"Lecture {i} of {dept}"))
            teacher = rng.choice(professors + lecturers)
            add(teacher, "teacherOf", course)
            taught.setdefault(teacher, []).append(course)

        undergrads = []
        for i in range(self._rand(config.undergrads_per_department)):
            student = f"{dept}:ug{i}"
            undergrads.append(student)
            add(student, "type", "UndergraduateStudent")
            add(student, "memberOf", dept)
            add(student, "telephone", Literal(f"555-{u}{d}{i:03d}"))
            add(student, "emailAddress", Literal(f"{student}@example.edu"))
            add(student, "name", Literal(f"UG{i}.{dept}"))
            for course in rng.sample(
                courses, min(len(courses), self._rand(config.courses_per_student))
            ):
                add(student, "takesCourse", course)

        grads = []
        for i in range(self._rand(config.grads_per_department)):
            student = f"{dept}:grad{i}"
            grads.append(student)
            add(student, "type", "GraduateStudent")
            add(student, "memberOf", dept)
            add(student, "emailAddress", Literal(f"{student}@example.edu"))
            add(student, "name", Literal(f"Grad{i}.{dept}"))
            add(student, "researchInterest",
                Literal(rng.choice(_RESEARCH_AREAS)))
            advisor = rng.choice(professors)
            add(student, "advisor", advisor)
            # Degree university: sometimes foreign (L1 weak pruning).
            if (
                len(self.universities) > 1
                and rng.random() < config.foreign_degree_probability
            ):
                degree_univ = rng.choice(
                    [other for other in self.universities if other != univ]
                )
            else:
                degree_univ = univ
            add(student, "undergraduateDegreeFrom", degree_univ)
            if rng.random() < 0.3:
                add(student, "mastersDegreeFrom", rng.choice(self.universities))
            # Courses; biased toward the advisor's courses (L0 triangles).
            advisor_courses = taught.get(advisor, [])
            n_courses = self._rand(config.courses_per_student)
            picked = set()
            if advisor_courses and rng.random() < config.advisor_course_probability:
                picked.add(rng.choice(advisor_courses))
            while len(picked) < min(n_courses, len(courses)):
                picked.add(rng.choice(courses))
            for course in picked:
                add(student, "takesCourse", course)
            if rng.random() < 0.4 and courses:
                add(student, "teachingAssistantOf", rng.choice(courses))

        # Publications: faculty-authored, often co-authored by a grad
        # student of the *same* department (L1 matches) and sometimes
        # by a grad of another department (L1 near-matches).
        pub_no = 0
        for prof in professors:
            for _ in range(self._rand(config.publications_per_faculty)):
                pub = f"{dept}:pub{pub_no}"
                pub_no += 1
                add(pub, "type", "Publication")
                add(pub, "title", Literal(f"Title of {pub}"))
                add(pub, "author", prof)
                if grads and rng.random() < 0.75:
                    add(pub, "author", rng.choice(grads))
                if self.all_professors and rng.random() < 0.2:
                    add(pub, "author", rng.choice(self.all_professors))


def generate_lubm(
    config: LUBMConfig | None = None, **overrides
) -> GraphDatabase:
    """Generate an LUBM-like graph database.

    Either pass a :class:`LUBMConfig` or keyword overrides, e.g.
    ``generate_lubm(n_universities=10, seed=1)``.
    """
    if config is None:
        config = LUBMConfig(**overrides)
    elif overrides:
        raise WorkloadError("pass either a config or overrides, not both")
    return _Generator(config).generate()


# -- build-once / open-many snapshot cache ------------------------------------


def lubm_snapshot_path(
    cache_dir: Union[str, Path], config: LUBMConfig
) -> Path:
    """Deterministic snapshot filename for one generator configuration.

    The readable prefix carries the headline knobs; the digest covers
    **every** config field, so changing any generation parameter (a
    probability, a per-department range, ...) maps to a different
    file instead of silently reusing a stale snapshot.  The suffix
    names the snapshot format version, so a cache written in a
    retired format is never mistaken for a current one.
    """
    from repro.storage.format import VERSION

    payload = repr(
        [(f.name, getattr(config, f.name)) for f in fields(config)]
    ).encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()[:10]
    return Path(cache_dir) / (
        f"lubm-u{config.n_universities}-seed{config.seed}-{digest}"
        f".v{VERSION}.snap"
    )


def build_lubm_snapshot(
    cache_dir: Union[str, Path],
    config: LUBMConfig | None = None,
    force: bool = False,
    **overrides,
) -> Path:
    """Generate-and-serialize once; later calls reuse the file.

    This is the build-once half of the build-once/open-many workflow:
    the generator runs only when the snapshot for this configuration
    is absent (or ``force`` is set), so repeated experiments pay
    generation and matrix construction a single time.
    """
    if config is None:
        config = LUBMConfig(**overrides)
    elif overrides:
        raise WorkloadError("pass either a config or overrides, not both")
    path = lubm_snapshot_path(cache_dir, config)
    if force or not path.exists():
        from repro.storage import write_snapshot

        path.parent.mkdir(parents=True, exist_ok=True)
        write_snapshot(_Generator(config).generate(), path)
    return path


def open_lubm(
    cache_dir: Union[str, Path],
    config: LUBMConfig | None = None,
    **overrides,
):
    """Open the LUBM workload as a :class:`TieredGraphView`.

    The open-many half: builds the snapshot on first use (see
    :func:`build_lubm_snapshot`), then every call is a cheap cold
    open — dictionaries and the block table, no N-Triples parsing, no
    regeneration, labels left on disk until queries touch them.
    """
    from repro.storage import TieredGraphView

    return TieredGraphView(
        build_lubm_snapshot(cache_dir, config, **overrides)
    )
