"""The six workloads: populations, operation streams, and the applications
that replay a stream against an object base.

Everything random is drawn here, from the benchmark's own
``random.Random`` seeded with ``--seed``, *before* any clock starts; the
program under test only ever receives the generated inputs.  Nothing in
this package imports ``repro.bench`` — the figure drivers may be
refactored freely without moving a workload.

An operation is a tuple ``(code, *params)``.  Codes map to the four
latency classes the metrics are reported by (``KIND_OF``): ``qfw`` and
``qbw`` are GOMql statements, ``call`` is a direct operation invocation
on a handle, ``upd`` is every update.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field, replace

from repro import (
    InstrumentationLevel,
    MaterializationConfig,
    ObjectBase,
    Strategy,
    WriteAheadLog,
    gomql,
    persistence,
)
from repro.domains import company, geometry

QFW = "range c: Cuboid retrieve c.volume where c.CuboidID = k"
QBW = "range c: Cuboid retrieve c where c.volume > lo and c.volume < hi"
RANKING_QBW = (
    "range e: Employee retrieve e where e.ranking > lo and e.ranking < hi"
)
VOLUME_EPSILON = 5.0
VOLUME_MAX = 1000.0  # dims are drawn from [1, 10]^3
RANKING_EPSILON = 0.3
RANKING_MAX = 12.0

#: Latency class of every operation code.
KIND_OF = {
    "Qfw": "qfw",
    "Qbw": "qbw",
    "Call": "call",
    "Qsel": "call",
    "I": "upd",
    "D": "upd",
    "S": "upd",
    "R": "upd",
    "T": "upd",
    "P": "upd",
    "N": "upd",
    "Ckpt": "ckpt",
}
QUERY_KINDS = ("qfw", "qbw", "call")

#: Untimed warm-up: the first 5 % of the stream.
WARMUP_SHARE = 0.05
#: Ops after the timed section, run under cProfile for ``py.calls_per_op``.
PROFILE_SLICE = 200


@dataclass(frozen=True)
class Spec:
    """One workload: what is built and what is run.  Why each exists is
    recorded in ``BENCHMARK.json`` and the README."""

    name: str
    domain: str  # "geometry" | "ranking" | "matrix"
    population: dict
    buffer_pages: int
    #: ``(code, share)`` — shares of the op stream, met *exactly* by
    #: count so no two seeds differ in how much of each kind they run.
    mix: tuple
    #: Timed operations per round.
    ops: int
    #: The latency class ``headline_p50_ms`` reports for this workload.
    headline: str
    strategy: Strategy = Strategy.IMMEDIATE
    maintenance: str = "compensate"  # MaterializationConfig's default
    durable: bool = False
    #: Queries per latency class the unmaterialized twin re-answers.
    oracle_samples: dict = field(default_factory=dict)

    def scaled(self, scale: float) -> "Spec":
        """Shrink population and op count (the smoke-scale test pass)."""
        if scale == 1.0:
            return self
        population = {
            key: max(2, round(value * scale))
            for key, value in self.population.items()
        }
        return replace(
            self, population=population, ops=max(40, round(self.ops * scale))
        )

    @property
    def warmup_ops(self) -> int:
        return max(1, round(self.ops * WARMUP_SHARE))

    @property
    def profile_ops(self) -> int:
        return min(PROFILE_SLICE, self.ops)


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="fig7_mix",
            # The paper's headline mix (half queries, half updates): every
            # layer does some of the work, so whole-system claims are made
            # here.
            domain="geometry",
            population={"cuboids": 1000},
            buffer_pages=32,
            mix=(("Qbw", 0.25), ("Qfw", 0.25), ("I", 0.25), ("S", 0.25)),
            ops=1500,
            headline="qbw",
            oracle_samples={"qbw": 12, "qfw": 100},
        ),
        Spec(
            name="fig9_forward",
            # Read-only forward lookups at 5x the population: GOMql and the
            # B+-tree carry Qfw, dispatch and the GMR store carry Call; a
            # maintenance optimisation must read no change.
            domain="geometry",
            population={"cuboids": 5000},
            buffer_pages=32,
            mix=(("Qfw", 0.6), ("Call", 0.4)),
            ops=600,
            headline="qfw",
            oracle_samples={"qfw": 100, "call": 100},
        ),
        Spec(
            name="fig10_updates",
            # Updates only, on the GMR fig9_forward reads: set_attr, the
            # invalidation wave, RRR pops and rematerialization dominate and
            # GOMql is idle, so read/write trades show as a pair.
            domain="geometry",
            population={"cuboids": 1000},
            buffer_pages=32,
            mix=(("S", 0.3), ("R", 0.3), ("T", 0.2), ("I", 0.1), ("D", 0.1)),
            ops=1000,
            headline="upd",
        ),
        Spec(
            name="fig13_lazy_backward",
            # Lazy rematerialization under backward queries: the only workload
            # where invalid rows wait and a query forces revalidation; the
            # buffer fits the working set.
            domain="ranking",
            population={
                "departments": 10,
                "employees_per_department": 50,
                "projects": 300,
                "jobs_per_employee": 6,
            },
            buffer_pages=150,
            mix=(("Qbw", 0.5), ("P", 0.5)),
            ops=4000,
            headline="qbw",
            strategy=Strategy.LAZY,
            oracle_samples={"qbw": 30},
        ),
        Spec(
            name="fig15_delta",
            # Delta maintenance of the company matrix: core.delta and
            # collection updates do the work and the invalidate/recompute path
            # of the other workloads is bypassed.
            domain="matrix",
            population={
                "departments": 5,
                "employees_per_department": 10,
                "projects": 100,
                "jobs_per_employee": 10,
            },
            buffer_pages=150,
            mix=(("Qsel", 0.5), ("N", 0.5)),
            ops=800,
            headline="upd",
            maintenance="delta",
            oracle_samples={"call": 20},
        ),
        Spec(
            name="durable_burst",
            # An update burst with a write-ahead log attached and one
            # checkpoint mid-stream, then recovery: the only workload where
            # storage.wal and persistence are busy.
            domain="geometry",
            population={"cuboids": 1000},
            buffer_pages=32,
            mix=(("S", 0.6), ("I", 0.2), ("Qfw", 0.2)),
            ops=1200,
            headline="upd",
            durable=True,
            oracle_samples={"qfw": 100},
        ),
    )
}


# ---------------------------------------------------------------------------
# Operation streams
# ---------------------------------------------------------------------------


def _rng(spec: Spec, seed: int, purpose: str) -> random.Random:
    # A str seed is hashed with SHA-512: independent of PYTHONHASHSEED.
    return random.Random(f"{spec.name}/{seed}/{purpose}")


#: Each block of this many ops holds every share of the mix exactly.
_BLOCK = 20


def _exact_codes(mix: tuple, count: int, rng: random.Random) -> list[str]:
    """``count`` codes in a seed-dependent order.  Every block of
    ``_BLOCK`` ops holds each share exactly (largest remainder for a
    trailing partial block), so no seed front-loads a kind: an op's cost
    may depend on how many updates ran before it."""
    codes: list[str] = []
    while len(codes) < count:
        size = min(_BLOCK, count - len(codes))
        quotas = [(code, share * size) for code, share in mix]
        block = [code for code, quota in quotas for _ in range(int(quota + 1e-9))]
        by_remainder = sorted(
            quotas, key=lambda item: item[1] - int(item[1] + 1e-9), reverse=True
        )
        block += [code for code, _quota in by_remainder[: size - len(block)]]
        rng.shuffle(block)
        codes += block
    return codes


def _stratified(count: int, high: float, rng: random.Random) -> list[float]:
    """``count`` points of ``[0, high)``, one per equal stratum, in a
    seed-dependent order — every seed's queries cover the range evenly."""
    strata = list(range(count))
    rng.shuffle(strata)
    return [(stratum + rng.random()) * high / count for stratum in strata]


def _triple(rng: random.Random, low: float, high: float) -> tuple:
    return (rng.uniform(low, high), rng.uniform(low, high), rng.uniform(low, high))


def _cuboid_params(rng: random.Random) -> tuple:
    """``(origin, dims, material index, value)`` of one new cuboid."""
    return (
        _triple(rng, -50.0, 50.0),
        _triple(rng, 1.0, 10.0),
        rng.randrange(len(_MATERIALS)),
        rng.uniform(1.0, 100.0),
    )


def make_stream(spec: Spec, seed: int) -> list[tuple]:
    """The whole op stream: warm-up, timed section, profile slice.

    The generator tracks what the stream itself creates and deletes, so
    every picked index and id names an object that is live when the op
    runs — no operation of a stream can fail.
    """
    rng = _rng(spec, seed, "ops")
    segments = [
        _exact_codes(spec.mix, count, rng)
        for count in (spec.warmup_ops, spec.ops, spec.profile_ops)
    ]
    codes = [code for segment in segments for code in segment]
    high = VOLUME_MAX if spec.domain == "geometry" else RANKING_MAX
    centres = iter(
        [
            centre
            for segment in segments
            for centre in _stratified(segment.count("Qbw"), high, rng)
        ]
    )
    ops: list[tuple] = []
    if spec.domain == "geometry":
        ids = list(range(1, spec.population["cuboids"] + 1))
        next_id = len(ids) + 1
        for code in codes:
            if code == "I":
                ops.append(("I",) + _cuboid_params(rng))
                ids.append(next_id)
                next_id += 1
            elif code == "D":
                index = rng.randrange(len(ids))
                ids.pop(index)
                ops.append(("D", index))
            elif code == "S":
                ops.append(("S", rng.randrange(len(ids)), _triple(rng, 0.8, 1.25)))
            elif code == "T":
                ops.append(("T", rng.randrange(len(ids)), _triple(rng, -5.0, 5.0)))
            elif code == "R":
                ops.append(
                    ("R", rng.randrange(len(ids)), rng.choice("xyz"),
                     rng.uniform(0.0, 3.14))
                )
            elif code == "Qfw":
                ops.append(("Qfw", rng.choice(ids)))
            elif code == "Qbw":
                ops.append(("Qbw", next(centres)))
            else:
                ops.append(("Call", rng.randrange(len(ids))))
    elif spec.domain == "ranking":
        jobs = (
            spec.population["departments"]
            * spec.population["employees_per_department"]
            * spec.population["jobs_per_employee"]
        )
        for code in codes:
            if code == "Qbw":
                ops.append(("Qbw", next(centres)))
            else:
                ops.append(("P", rng.randrange(jobs), rng.randrange(2)))
    else:
        new_projects = 0
        for code in codes:
            if code == "Qsel":
                ops.append(
                    ("Qsel", rng.randrange(spec.population["departments"]))
                )
            else:
                new_projects += 1
                ops.append(("N", rng.getrandbits(32), new_projects))
    if spec.durable:
        # One checkpoint at the midpoint of the timed section.
        ops.insert(spec.warmup_ops + spec.ops // 2, ("Ckpt",))
    return ops


def timed_slice(spec: Spec) -> slice:
    """Where the timed section sits in :func:`make_stream`'s output."""
    extra = 1 if spec.durable else 0
    return slice(spec.warmup_ops, spec.warmup_ops + spec.ops + extra)


def stream_digest(ops: list[tuple]) -> str:
    return hashlib.sha256(repr(ops).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Applications
# ---------------------------------------------------------------------------

_MATERIALS = (("Iron", 7.86), ("Gold", 19.0), ("Copper", 8.96))


def _new_base(spec: Spec, *, oracle: bool) -> ObjectBase:
    """Closed loop, one client: ``workers=0`` and ``shards=1`` stay at
    their defaults.  The oracle twin carries no instrumentation at all."""
    config = MaterializationConfig(
        level=(
            InstrumentationLevel.NONE if oracle else InstrumentationLevel.OBJ_DEP
        ),
        strategy=spec.strategy,
        maintenance=spec.maintenance,
    )
    return ObjectBase(config=config, buffer_pages=spec.buffer_pages)


class GeometryApp:
    """Cuboids with a materialized ``volume`` (Sec. 7.1)."""

    def __init__(
        self,
        spec: Spec,
        seed: int,
        *,
        oracle: bool = False,
        workdir: str | None = None,
        file_factory=None,
    ) -> None:
        self.spec = spec
        self.db = db = _new_base(spec, oracle=oracle)
        geometry.build_geometry_schema(db)
        rng = _rng(spec, seed, "data")
        self.materials = [
            geometry.create_material(db, name, weight)
            for name, weight in _MATERIALS
        ]
        self.cuboids: list = []
        self.ids: list[int] = []
        self.id_of: dict = {}
        self.next_id = 1
        for _ in range(spec.population["cuboids"]):
            self._insert(("I",) + _cuboid_params(rng))
        db.create_attr_index("Cuboid", "CuboidID")
        # One reusable parameter vertex for scale / translate.
        self.param = geometry.create_vertex(db, 1.0, 1.0, 1.0)
        self.gmr = None if oracle else db.materialize([("Cuboid", "volume")])
        self.wal = None
        if spec.durable and not oracle:
            self.checkpoint_path = os.path.join(workdir, "checkpoint.json")
            self.wal_path = os.path.join(workdir, "wal.log")
            # Flush policy: write + flush() per append, never fsync.
            self.wal = WriteAheadLog(
                self.wal_path, fsync=False, file_factory=file_factory
            )
            db.attach_wal(self.wal)
        self.apply_by_code = {
            "I": self._insert,
            "D": self._delete,
            "S": self._scale,
            "R": self._rotate,
            "T": self._translate,
            "Qfw": self._forward,
            "Qbw": self._backward,
            "Call": self._call,
            "Ckpt": self.checkpoint,
        }

    def close(self) -> None:
        if self.wal is not None:
            self.db.detach_wal()
            self.wal.close()

    # -- operations ---------------------------------------------------------

    def _insert(self, op: tuple):
        _code, origin, dims, material, value = op
        cuboid = geometry.create_cuboid(
            self.db,
            origin=origin,
            dims=dims,
            material=self.materials[material],
            value=value,
            cuboid_id=self.next_id,
        )
        self.cuboids.append(cuboid)
        self.ids.append(self.next_id)
        self.id_of[cuboid.oid] = self.next_id
        self.next_id += 1

    def _delete(self, op: tuple):
        self.ids.pop(op[1])
        self.db.delete(self.cuboids.pop(op[1]))

    def _set_param(self, values: tuple) -> None:
        self.param.set_X(values[0])
        self.param.set_Y(values[1])
        self.param.set_Z(values[2])

    def _scale(self, op: tuple):
        self._set_param(op[2])
        self.cuboids[op[1]].scale(self.param)

    def _translate(self, op: tuple):
        self._set_param(op[2])
        self.cuboids[op[1]].translate(self.param)

    def _rotate(self, op: tuple):
        self.cuboids[op[1]].rotate(op[2], op[3])

    def _forward(self, op: tuple):
        return gomql.run_statement(self.db, QFW, {"k": op[1]})

    def _backward(self, op: tuple):
        return gomql.run_statement(
            self.db,
            QBW,
            {"lo": op[1] - VOLUME_EPSILON, "hi": op[1] + VOLUME_EPSILON},
        )

    def _call(self, op: tuple):
        return self.cuboids[op[1]].volume()

    def checkpoint(self, op: tuple = ("Ckpt",)):
        return persistence.checkpoint(self.db, self.checkpoint_path)

    # -- verification -------------------------------------------------------

    def normalise(self, op: tuple, result):
        """A query result in a form two bases can be compared by."""
        if op[0] == "Qbw":
            return sorted(self.id_of[handle.oid] for handle in result)
        if op[0] == "Qfw":
            return list(result)
        return result

    def oracle_answer(self, op: tuple):
        """The same query answered by plain Python over the twin's
        handles — no GOMql, no GMR, no index."""
        if op[0] == "Qbw":
            low, high = op[1] - VOLUME_EPSILON, op[1] + VOLUME_EPSILON
            return sorted(
                cuboid_id
                for cuboid_id, cuboid in zip(self.ids, self.cuboids)
                if low < cuboid.volume() < high
            )
        if op[0] == "Qfw":
            return [self.cuboids[self.ids.index(op[1])].volume()]
        return self.cuboids[op[1]].volume()

    def recover(self) -> ObjectBase:
        """Checkpoint + WAL tail replayed into a fresh base."""
        fresh = _new_base(self.spec, oracle=False)
        geometry.build_geometry_schema(fresh)
        persistence.recover(fresh, self.checkpoint_path, self.wal_path)
        return fresh


class RankingApp:
    """Employees with a materialized ``ranking`` (Sec. 7.2, Fig. 13)."""

    def __init__(self, spec: Spec, seed: int, *, oracle: bool = False) -> None:
        self.spec = spec
        self.db = db = _new_base(spec, oracle=oracle)
        company.build_company_schema(db)
        self.fixture = company.populate_company(
            db, _rng(spec, seed, "data"), **spec.population
        )
        db.create_attr_index("Employee", "EmpNo")
        self.emp_no_of = {
            employee.oid: number
            for number, employee in enumerate(self.fixture.employees, start=1)
        }
        self.gmr = (
            None if oracle else db.materialize([("Employee", "ranking")])
        )
        self.apply_by_code = {"Qbw": self._backward, "P": self._promote}

    def close(self) -> None:
        pass

    def _backward(self, op: tuple):
        return gomql.run_statement(
            self.db,
            RANKING_QBW,
            {"lo": op[1] - RANKING_EPSILON, "hi": op[1] + RANKING_EPSILON},
        )

    def _promote(self, op: tuple):
        """P: one job's status flag flips."""
        job = self.fixture.jobs[op[1]]
        if op[2]:
            job.set_WithinBudget(not job.WithinBudget)
        else:
            job.set_OnTime(not job.OnTime)

    def normalise(self, op: tuple, result):
        return sorted(self.emp_no_of[handle.oid] for handle in result)

    def oracle_answer(self, op: tuple):
        low, high = op[1] - RANKING_EPSILON, op[1] + RANKING_EPSILON
        return sorted(
            number
            for number, employee in enumerate(self.fixture.employees, start=1)
            if low < employee.ranking() < high
        )


class MatrixApp:
    """The department x project matrix under delta maintenance (Fig. 15)."""

    def __init__(self, spec: Spec, seed: int, *, oracle: bool = False) -> None:
        self.spec = spec
        self.db = db = _new_base(spec, oracle=oracle)
        company.build_company_schema(db)
        self.fixture = company.populate_company(
            db, _rng(spec, seed, "data"), **spec.population
        )
        self.company = self.fixture.company
        self.name_of = {
            project.oid: f"P{index}"
            for index, project in enumerate(self.fixture.projects)
        }
        self.gmr = None
        if not oracle:
            self.gmr = db.materialize([("Company", "matrix")])
            company.define_company_deltas(db)
        self.apply_by_code = {"Qsel": self._select, "N": self._new_project}

    def close(self) -> None:
        pass

    def _select(self, op: tuple):
        """Qsel: the projects of one department's matrix lines."""
        lines = self.company.matrix()
        return [line.proj for line in lines if line.dep.DepNo == op[1]]

    def _new_project(self, op: tuple):
        """N: a new project with 5 programmers; ``op[1]`` seeds the draw."""
        project = company.add_random_project(
            self.db,
            random.Random(op[1]),
            self.company,
            self.fixture.employees,
            programmers=5,
            index=op[2],
        )
        self.name_of[project.oid] = f"NP{op[2]}"

    def normalise(self, op: tuple, result):
        return sorted(self.name_of[handle.oid] for handle in result)

    def oracle_answer(self, op: tuple):
        return self.normalise(op, self._select(op))


def build_app(
    spec: Spec, seed: int, *, oracle: bool = False, workdir=None, file_factory=None
):
    """Build, populate and materialize — everything ``setup_s`` times.
    ``workdir`` and ``file_factory`` serve a durable workload's WAL."""
    if spec.domain == "geometry":
        return GeometryApp(
            spec, seed, oracle=oracle, workdir=workdir, file_factory=file_factory
        )
    app_class = RankingApp if spec.domain == "ranking" else MatrixApp
    return app_class(spec, seed, oracle=oracle)
