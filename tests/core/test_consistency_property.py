"""Property-based system test: the consistency invariant (Def. 3.2).

Drives the geometry application with random operation sequences —
geometric transformations, attribute updates, membership changes, object
creation/deletion and interleaved forward/backward queries — under every
combination of rematerialization strategy and instrumentation level, and
asserts after the run:

* every GMR extension is *consistent* (valid entries hold true results),
* every complete GMR is *complete* w.r.t. the surviving extension,
* the RRR and the per-object ``ObjDepFct`` markings stay in lockstep.

This is the load-bearing correctness test of the whole system: any
missed invalidation, stale row or leaked reverse reference shows up here.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import InstrumentationLevel, ObjectBase, Strategy
from repro.domains.geometry import (
    build_figure2_database,
    build_geometry_schema,
    create_cuboid,
    create_vertex,
)

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "scale",
                "rotate",
                "translate",
                "set_value",
                "set_mat",
                "set_vertex",
                "create",
                "delete",
                "wp_insert",
                "wp_remove",
                "rename_material",
                "respec_material",
                "q_forward",
                "q_backward",
                "q_total",
            ]
        ),
        st.integers(min_value=0, max_value=7),   # object selector
        st.floats(min_value=0.5, max_value=2.0), # magnitude
    ),
    max_size=25,
)

_STRICT_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "scale",
                "rotate",
                "translate",
                "set_value",
                "create",
                "delete",
                "wp_insert",
                "wp_remove",
                "q_forward",
                "q_backward",
                "q_total",
            ]
        ),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.5, max_value=2.0),
    ),
    max_size=25,
)


class _Driver:
    """Applies operation codes to a live geometry database."""

    def __init__(self, level: InstrumentationLevel, strategy: Strategy, strict: bool):
        self.db = ObjectBase(level=level)
        build_geometry_schema(self.db, strict_cuboids=strict)
        self.fixture = build_figure2_database(self.db)
        self.cuboids = list(self.fixture.cuboids)
        self.strict = strict
        #: Sub-objects of a strict Cuboid are hidden from maintenance
        #: only at INFO_HIDING; below it strictness is access control.
        self.hidden = strict and level is InstrumentationLevel.INFO_HIDING
        self.gmrs = [
            self.db.materialize(
                [("Cuboid", "volume"), ("Cuboid", "weight")], strategy=strategy
            ),
            self.db.materialize(
                [("Workpieces", "total_volume")], strategy=strategy
            ),
            self.db.materialize(
                [("Valuables", "total_value")], strategy=strategy
            ),
        ]

    def pick(self, selector: int):
        if not self.cuboids:
            return None
        return self.cuboids[selector % len(self.cuboids)]

    def apply(self, code: str, selector: int, magnitude: float) -> None:
        db, fixture = self.db, self.fixture
        cuboid = self.pick(selector)
        if code == "scale" and cuboid is not None:
            cuboid.scale(create_vertex(db, magnitude, 1.0, magnitude))
        elif code == "rotate" and cuboid is not None:
            cuboid.rotate("xyz"[selector % 3], magnitude)
        elif code == "translate" and cuboid is not None:
            cuboid.translate(create_vertex(db, magnitude, -magnitude, 0.0))
        elif code == "set_value" and cuboid is not None:
            cuboid.set_Value(magnitude * 10.0)
        elif code == "set_mat" and cuboid is not None and not self.strict:
            material = fixture.iron if selector % 2 else fixture.gold
            cuboid.set_Mat(material)
        elif code == "set_vertex" and cuboid is not None:
            vertex_oid = db.objects.get(cuboid.oid).data[f"V{1 + selector % 8}"]
            db.handle(vertex_oid).set_X(magnitude * 7.0)
        elif code == "create":
            new = create_cuboid(
                db,
                dims=(magnitude, 1.0, 2.0),
                material=fixture.iron if selector % 2 else fixture.gold,
                value=magnitude,
                cuboid_id=100 + selector,
            )
            self.cuboids.append(new)
        elif code == "delete" and len(self.cuboids) > 1 and cuboid is not None:
            fixture.workpieces.remove(cuboid)
            fixture.valuables.remove(cuboid)
            self.cuboids.remove(cuboid)
            db.delete(cuboid)
        elif code == "wp_insert" and cuboid is not None:
            fixture.workpieces.insert(cuboid)
        elif code == "wp_remove" and cuboid is not None:
            fixture.workpieces.remove(cuboid)
        elif code == "q_forward" and cuboid is not None:
            cuboid.volume()
            cuboid.weight()
        elif code == "q_backward":
            self.db.gmr_manager.backward_query(
                "Cuboid.volume", magnitude * 50.0, magnitude * 400.0
            )
        elif code == "q_total":
            fixture.workpieces.total_volume()
            fixture.valuables.total_value()
        elif code == "rename_material" and not self.hidden:
            fixture.iron.set_Name("Iron" if selector % 2 else "Fe")
        elif code == "respec_material" and not self.hidden:
            fixture.iron.set_SpecWeight(7.86 * magnitude)

    def check_invariants(self) -> None:
        for gmr in self.gmrs:
            violations = gmr.check_consistency(self.db)
            assert violations == [], violations
            # A lazily invalidated row whose argument object was later
            # deleted is a blind row the paper cleans up on next access;
            # run that sweep, then the extension must be exactly complete.
            self.db.gmr_manager.revalidate(gmr)
            assert gmr.is_complete(self.db)
            assert gmr.is_fully_valid()
            assert gmr.check_consistency(self.db) == []
        rrr = self.db.gmr_manager.rrr
        for obj in self.db.objects.iter_objects():
            assert obj.obj_dep_fct == rrr.fids_of(obj.oid)


_CONFIGS = [
    (InstrumentationLevel.NAIVE, Strategy.IMMEDIATE, False),
    (InstrumentationLevel.NAIVE, Strategy.LAZY, False),
    (InstrumentationLevel.SCHEMA_DEP, Strategy.IMMEDIATE, False),
    (InstrumentationLevel.SCHEMA_DEP, Strategy.LAZY, False),
    (InstrumentationLevel.OBJ_DEP, Strategy.IMMEDIATE, False),
    (InstrumentationLevel.OBJ_DEP, Strategy.LAZY, False),
    # Strict encapsulation below INFO_HIDING (ROADMAP 6a): sub-objects
    # must still be traced, or a scaled cuboid keeps a VALID stale row.
    (InstrumentationLevel.NAIVE, Strategy.IMMEDIATE, True),
    (InstrumentationLevel.SCHEMA_DEP, Strategy.LAZY, True),
    (InstrumentationLevel.OBJ_DEP, Strategy.IMMEDIATE, True),
]


@pytest.mark.parametrize("level,strategy,strict", _CONFIGS)
@given(ops=_OPS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_operations_preserve_invariants(level, strategy, strict, ops):
    driver = _Driver(level, strategy, strict)
    for code, selector, magnitude in ops:
        driver.apply(code, selector, magnitude)
    driver.check_invariants()


@given(ops=_STRICT_OPS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_info_hiding_preserves_invariants(ops):
    """The Sec. 5.3 configuration: strict Cuboid + InvalidatedFct sets."""
    driver = _Driver(InstrumentationLevel.INFO_HIDING, Strategy.IMMEDIATE, True)
    for code, selector, magnitude in ops:
        driver.apply(code, selector, magnitude)
    driver.check_invariants()


@given(ops=_STRICT_OPS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_info_hiding_lazy_preserves_invariants(ops):
    driver = _Driver(InstrumentationLevel.INFO_HIDING, Strategy.LAZY, True)
    for code, selector, magnitude in ops:
        driver.apply(code, selector, magnitude)
    driver.check_invariants()
