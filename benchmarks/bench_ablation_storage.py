"""Ablation: the GMR access-path choice the paper argues for.

**MDS (grid file) vs. per-column B+ trees** (Sec. 3.3): for low-arity
GMRs the paper uses a single multi-dimensional structure; both access
paths must return identical backward answers.
"""

from repro import ObjectBase
from repro.domains.geometry import build_geometry_schema, create_cuboid, create_material
from repro.util.rng import DeterministicRng


def _build(storage, cuboids=120):
    db = ObjectBase(buffer_pages=24)
    build_geometry_schema(db)
    rng = DeterministicRng(13)
    iron = create_material(db, "Iron", 7.86)
    handles = [
        create_cuboid(
            db,
            dims=(rng.uniform(1, 10), rng.uniform(1, 10), rng.uniform(1, 10)),
            material=iron,
            cuboid_id=index,
        )
        for index in range(cuboids)
    ]
    gmr = db.materialize([("Cuboid", "volume")], storage=storage)
    return db, handles, gmr


def test_mds_and_columns_agree(benchmark):
    db_mds, _, gmr_mds = _build("mds")
    db_col, _, gmr_col = _build("columns")

    def answers(db):
        return sorted(
            value
            for value, _ in db.gmr_manager.backward_query(
                "Cuboid.volume", 100.0, 400.0
            )
        )

    reference = answers(db_col)
    result = benchmark.pedantic(lambda: answers(db_mds), rounds=1, iterations=1)
    assert result == reference
    assert len(reference) > 0
