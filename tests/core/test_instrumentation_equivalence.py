"""Differential property test: instrumentation levels are equivalent.

The paper's refinements (Figure 4 → Figure 5 → information hiding) are
*performance* optimisations: they must never change what ends up in the
GMR.  This test replays identical random operation sequences under every
notifying instrumentation level (with and without strict encapsulation
of ``Cuboid``) and asserts the final GMR extensions are value-identical.
"""

from __future__ import annotations

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
            ["scale", "rotate", "translate", "set_mat", "set_vertex",
             "create", "delete", "query"]
        ),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.5, max_value=1.8),
    ),
    max_size=15,
)


def _run(level: InstrumentationLevel, ops, *, strict: bool = False):
    db = ObjectBase(level=level)
    build_geometry_schema(db, strict_cuboids=strict)
    fixture = build_figure2_database(db)
    gmr = db.materialize([("Cuboid", "volume"), ("Cuboid", "weight")])
    cuboids = list(fixture.cuboids)
    for code, selector, magnitude in ops:
        cuboid = cuboids[selector % len(cuboids)] if cuboids else None
        if code == "scale" and cuboid is not None:
            cuboid.scale(create_vertex(db, magnitude, 1.0, 1.0))
        elif code == "rotate" and cuboid is not None:
            cuboid.rotate("xyz"[selector % 3], magnitude)
        elif code == "translate" and cuboid is not None:
            cuboid.translate(create_vertex(db, magnitude, 0.0, -magnitude))
        elif code == "set_mat" and cuboid is not None:
            cuboid.set_Mat(fixture.gold if selector % 2 else fixture.iron)
        elif code == "set_vertex" and cuboid is not None:
            vertex = db.objects.get(cuboid.oid).data[f"V{1 + selector % 8}"]
            db.handle(vertex).set_Y(magnitude * 3.0)
        elif code == "create":
            cuboids.append(
                create_cuboid(
                    db,
                    dims=(magnitude, 1.0, 1.0),
                    material=fixture.iron,
                    cuboid_id=50 + selector,
                )
            )
        elif code == "delete" and len(cuboids) > 1 and cuboid is not None:
            cuboids.remove(cuboid)
            db.delete(cuboid)
        elif code == "query" and cuboid is not None:
            cuboid.volume()
            cuboid.weight()
    assert gmr.check_consistency(db) == []
    return sorted(
        (
            row.args[0].value,
            round(row.results[0], 9),
            round(row.results[1], 9),
        )
        for row in gmr.rows()
    )


@given(ops=_OPS)
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_all_notifying_levels_agree(ops):
    reference = _run(InstrumentationLevel.NAIVE, ops)
    assert _run(InstrumentationLevel.SCHEMA_DEP, ops) == reference
    assert _run(InstrumentationLevel.OBJ_DEP, ops) == reference


@given(ops=_OPS)
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_strict_encapsulation_agrees_at_every_level(ops):
    """Strictness (Sec. 5.3) is access control below ``INFO_HIDING`` and
    one post-operation invalidation at it — the extension is the same.
    Only updates the strict public clause offers are replayed."""
    ops = [op for op in ops if op[0] not in ("set_mat", "set_vertex")]
    reference = _run(InstrumentationLevel.NAIVE, ops)
    for level in (
        InstrumentationLevel.NAIVE,
        InstrumentationLevel.SCHEMA_DEP,
        InstrumentationLevel.OBJ_DEP,
        InstrumentationLevel.INFO_HIDING,
    ):
        assert _run(level, ops, strict=True) == reference
